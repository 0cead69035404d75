package core

import (
	"testing"
	"time"

	"madeus/internal/engine"
	"madeus/internal/flow"
	"madeus/internal/wire"
)

// TestStandbyTakeover exports the active middleware's state, imports it
// into a standby in front of the same nodes, and verifies customers and
// migrations work on the standby (Sec 4.2).
func TestStandbyTakeover(t *testing.T) {
	rig := newRig(t, 2, engine.Options{})
	rig.provision(t, "a", 30)

	// Some update traffic so the MLC is non-zero.
	c := rig.connect(t, "a")
	mustExecAll(t, c, "BEGIN", "SELECT bal FROM acct WHERE id = 1",
		"UPDATE acct SET bal = bal + 1 WHERE id = 1", "COMMIT")
	c.Close()
	activeTn, _ := rig.mw.Tenant("a")
	wantMLC := activeTn.MLC()
	if wantMLC == 0 {
		t.Fatal("setup: MLC still zero")
	}

	// Serialize the active state and stand up the standby.
	data, err := rig.mw.ExportState().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	st, err := UnmarshalState(data)
	if err != nil {
		t.Fatal(err)
	}
	standby, err := New(Options{Flow: flow.Config{Deadline: 20 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()
	for _, n := range rig.nodes {
		standby.AddNode(n)
	}
	if err := standby.ImportState(st); err != nil {
		t.Fatal(err)
	}

	// The standby routes the tenant to the right node with a resumed MLC.
	tn, ok := standby.Tenant("a")
	if !ok {
		t.Fatal("tenant missing on standby")
	}
	if got := tn.MLC(); got != wantMLC {
		t.Errorf("standby MLC = %d, want %d", got, wantMLC)
	}
	node, _ := tn.Node()
	if node.BackendName() != "node0" {
		t.Errorf("standby routes to %s", node.BackendName())
	}

	// Customers work against the standby, including a migration.
	c2, err := wire.Dial(standby.Addr(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	res, err := c2.Exec("SELECT COUNT(*) FROM acct")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 30 {
		t.Errorf("count via standby = %v", res.Rows[0][0])
	}
	if _, err := standby.Migrate("a", "node1", MigrateOptions{Strategy: Madeus}); err != nil {
		t.Fatalf("migration on standby: %v", err)
	}
}

func TestImportStateUnknownNode(t *testing.T) {
	mw, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mw.Close()
	st := &State{Tenants: []TenantPlacement{{Name: "x", Node: "ghost"}}}
	if err := mw.ImportState(st); err == nil {
		t.Error("want error for unknown node")
	}
}

func TestUnmarshalStateBadJSON(t *testing.T) {
	if _, err := UnmarshalState([]byte("{nope")); err == nil {
		t.Error("want error")
	}
}
