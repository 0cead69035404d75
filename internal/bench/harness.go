package bench

import (
	"context"
	"fmt"
	"time"

	"madeus/internal/cluster"
	"madeus/internal/core"
	"madeus/internal/flow"
	"madeus/internal/metrics"
	"madeus/internal/tpcw"
	"madeus/internal/wire"
)

// Harness is one experiment's cluster + middleware, mirroring the paper's
// setup: dedicated DBMS nodes behind one Madeus instance, load generators
// speaking to the middleware.
type Harness struct {
	cfg   Config
	MW    *core.Middleware
	Nodes []*cluster.Node
}

// NewHarness boots a middleware with n DBMS nodes.
func NewHarness(cfg Config, n int) (*Harness, error) {
	mw, err := core.New(core.Options{Flow: flow.Config{Deadline: cfg.Deadline}})
	if err != nil {
		return nil, err
	}
	h := &Harness{cfg: cfg, MW: mw}
	for i := 0; i < n; i++ {
		node, err := cluster.NewNode(fmt.Sprintf("node%d", i),
			cluster.NodeOptions{Engine: cfg.engineOptions()})
		if err != nil {
			h.Close()
			return nil, err
		}
		h.Nodes = append(h.Nodes, node)
		mw.AddNode(node)
	}
	return h, nil
}

// otherNode returns the node the tenant is NOT on (migration target for
// ping-pong experiments).
func (h *Harness) otherNode() string {
	for _, n := range h.Nodes {
		found := false
		for _, tn := range h.MW.Tenants() {
			t, _ := h.MW.Tenant(tn)
			node, _ := t.Node()
			if node == core.Backend(n) {
				found = true
			}
		}
		if !found {
			return n.Name
		}
	}
	return h.Nodes[len(h.Nodes)-1].Name
}

// Close tears the harness down.
func (h *Harness) Close() {
	if h.MW != nil {
		h.MW.Close()
	}
	for _, n := range h.Nodes {
		n.Close()
	}
}

// Provision creates a tenant on a node and loads the TPC-W data at scale.
func (h *Harness) Provision(tenant, node string, scale tpcw.Scale) error {
	if err := h.MW.ProvisionTenant(tenant, node); err != nil {
		return err
	}
	c, err := wire.Dial(h.MW.Addr(), tenant)
	if err != nil {
		return err
	}
	defer c.Close()
	return tpcw.Load(c, scale)
}

// Workload is one tenant's running EB fleet.
type Workload struct {
	Tenant string
	Rec    *metrics.Recorder

	cancel context.CancelFunc
	done   chan error
}

// StartWorkload launches ebs emulated browsers against a tenant. Stop it
// with Stop, which returns the first transport error (nil is the norm).
func (h *Harness) StartWorkload(tenant string, ebs int, mix tpcw.Mix, scale tpcw.Scale) *Workload {
	ctx, cancel := context.WithCancel(context.Background())
	w := &Workload{
		Tenant: tenant,
		Rec:    metrics.NewRecorder(),
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() {
		w.done <- tpcw.RunFleet(ctx, ebs, mix, scale, h.cfg.Think, func() (tpcw.Execer, error) {
			return wire.Dial(h.MW.Addr(), tenant)
		}, w.Rec)
	}()
	return w
}

// Stop cancels the fleet and waits for it to settle. The recorder is closed
// first so stragglers finishing after the measurement window are counted as
// dropped instead of skewing the series.
func (w *Workload) Stop() error {
	w.Rec.Close()
	w.cancel()
	return <-w.done
}

// MeasureLoad runs one steady-state load measurement: warm, then clear-ish
// measurement via a fresh recorder window.
//
// The recorder cannot be swapped mid-fleet, so the warm observations are
// included; with Warm << Measure the bias is small, and classification only
// needs relative ordering.
func (h *Harness) MeasureLoad(tenant string, ebs int, mix tpcw.Mix, scale tpcw.Scale) (metrics.Summary, error) {
	w := h.StartWorkload(tenant, ebs, mix, scale)
	time.Sleep(h.cfg.Warm + h.cfg.Measure)
	err := w.Stop()
	return w.Rec.Summarize(), err
}

// MigrateUnderLoad starts a workload, migrates after the warm window, stops
// the workload after the post window, and returns the migration report plus
// the workload recorder.
func (h *Harness) MigrateUnderLoad(tenant, dest string, ebs int, mix tpcw.Mix,
	scale tpcw.Scale, opts core.MigrateOptions) (*core.Report, *metrics.Recorder, error) {
	w := h.StartWorkload(tenant, ebs, mix, scale)
	time.Sleep(h.cfg.Warm)
	rep, err := h.MW.Migrate(tenant, dest, opts)
	time.Sleep(h.cfg.Warm) // observe post-migration behaviour
	if stopErr := w.Stop(); stopErr != nil && err == nil {
		err = stopErr
	}
	return rep, w.Rec, err
}
