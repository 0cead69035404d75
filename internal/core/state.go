package core

import (
	"encoding/json"
	"fmt"
)

// State is the small amount of information a standby Madeus instance needs
// to take over normal processing (Sec 4.2: "Since Madeus keeps a small
// amount of state information for normal processing, we can smoothly switch
// the active Madeus node to the standby Madeus node"). It deliberately
// excludes migration progress: per the paper, a standby restarts an
// in-flight migration from Step 1.
type State struct {
	Tenants []TenantPlacement `json:"tenants"`
}

// TenantPlacement records where a tenant lives and its logical clock.
type TenantPlacement struct {
	Name string `json:"name"`
	Node string `json:"node"`
	MLC  uint64 `json:"mlc"`
}

// ExportState snapshots the tenant placements. Safe to call at any time;
// in-flight migrations are represented by their CURRENT master (the source
// until switch-over), which is exactly where a standby must route.
func (m *Middleware) ExportState() *State {
	st := &State{}
	for _, name := range m.Tenants() {
		t, ok := m.Tenant(name)
		if !ok {
			continue
		}
		node, _ := t.Node()
		st.Tenants = append(st.Tenants, TenantPlacement{
			Name: name,
			Node: node.BackendName(),
			MLC:  t.MLC(),
		})
	}
	return st
}

// Marshal renders the state as JSON (what an active instance would ship to
// its standby).
func (s *State) Marshal() ([]byte, error) { return json.Marshal(s) }

// UnmarshalState parses a serialized state.
func UnmarshalState(data []byte) (*State, error) {
	var s State
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("core: bad state: %w", err)
	}
	return &s, nil
}

// ImportState registers every tenant from a serialized state onto this
// (standby) middleware. All referenced nodes must already be registered
// with AddNode. Tenant logical clocks resume from their exported values so
// timestamps stay monotone across the takeover.
func (m *Middleware) ImportState(st *State) error {
	for _, tp := range st.Tenants {
		if err := m.AddTenant(tp.Name, tp.Node); err != nil {
			return err
		}
		t, _ := m.Tenant(tp.Name)
		t.mlc.Store(tp.MLC)
	}
	return nil
}
