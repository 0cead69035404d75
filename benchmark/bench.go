package main

import (
	"errors"
	"fmt"
	"time"

	"madeus/internal/cluster"
	"madeus/internal/core"
	"madeus/internal/engine"
	"madeus/internal/flow"
	"madeus/internal/tpcw"
	"madeus/internal/wal"
	"madeus/internal/wire"
)

const (
	tenant = "shop"
	// setUps is how many times a run performs phase 1; setup_s is their
	// median, and the last one's cluster carries the measured phases.
	setUps = 3
	// maxWall invalidates a run that has lost its shape (a stuck catch-up,
	// a starved host).
	maxWall = 60 * time.Second
)

// bed is the system under test: the middleware in front of two nodes, all in
// this process, configured as shipped.
type bed struct {
	mw    *core.Middleware
	nodes [2]*cluster.Node
	conns []*wire.Client
}

func boot(wl workload) (*bed, error) {
	b := &bed{}
	mw, err := core.New(core.Options{Flow: flow.DefaultConfig()})
	if err != nil {
		return nil, err
	}
	b.mw = mw
	for i := range b.nodes {
		n, err := cluster.NewNode(fmt.Sprintf("node%d", i), cluster.NodeOptions{Engine: engine.Options{
			WAL:         wal.Options{SyncDelay: wl.SyncDelay, Mode: wal.GroupCommit},
			LockTimeout: time.Second,
		}})
		if err != nil {
			b.close()
			return nil, err
		}
		b.nodes[i] = n
		mw.AddNode(n)
	}
	return b, nil
}

func (b *bed) close() {
	for _, c := range b.conns {
		_ = c.Close() // read side only; the clients have stopped
	}
	b.mw.Close()
	for _, n := range b.nodes {
		if n != nil {
			n.Close()
		}
	}
}

// setUp is phase 1: boot, provision, load, dial, and the first W
// interactions. The clients keep running when it returns.
func setUp(wl workload, sz sizes, seed int64, trace bool) (*bed, *fleet, error) {
	b, err := boot(wl)
	if err != nil {
		return nil, nil, err
	}
	f, err := func() (*fleet, error) {
		if err := b.mw.ProvisionTenant(tenant, b.nodes[0].Name); err != nil {
			return nil, err
		}
		var conns []tpcw.Execer
		for i := 0; i < nClients; i++ {
			c, err := wire.Dial(b.mw.Addr(), tenant)
			if err != nil {
				return nil, err
			}
			b.conns = append(b.conns, c)
			conns = append(conns, c)
		}
		if err := tpcw.Load(conns[0], wl.Scale); err != nil {
			return nil, err
		}
		f := newFleet(sz, trace)
		if trace {
			f.atMark = layerCounters(b)
		}
		f.start(wl, seed, conns)
		if err := f.reach(sz.W); err != nil {
			_ = f.stop() // the transport error is already in err
			return nil, err
		}
		return f, nil
	}()
	if err != nil {
		b.close()
		return nil, nil, err
	}
	return b, f, nil
}

// migration is one Migrate call: its interval on the fleet's clock and its
// report.
type migration struct {
	start, end int64
	rep        *core.Report
}

// outcome is everything one run measured, before any metric is derived.
type outcome struct {
	wl     workload
	sz     sizes
	seed   int64
	setups []float64 // seconds, one per set-up
	f      *fleet
	migs   []migration
	mon    monitorPeaks
	wall   time.Duration
	layers map[string]float64 // per-layer metrics, traced runs only
}

// run executes one workload once: set-up, steady phase, the migration train,
// then the correctness gate. A non-empty traceDir makes it the traced run:
// client-side spans on, and afterwards the layers probed one at a time on the
// same cluster, with traceDir for scratch files.
func run(wl workload, sz sizes, seed int64, traceDir string) (*outcome, error) {
	began := time.Now()
	trace := traceDir != ""
	o := &outcome{wl: wl, sz: sz, seed: seed}
	var b *bed
	for i := 0; i < setUps; i++ {
		t0 := time.Now()
		var err error
		b, o.f, err = setUp(wl, sz, seed, trace)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
		if i < setUps-1 {
			err := o.f.stop()
			b.close()
			if err != nil {
				return nil, err
			}
		}
	}
	defer b.close()
	f := o.f
	stopMonitor := func() {}
	if trace {
		stopMonitor = watchTenant(b, &o.mon)
	}

	err := func() error {
		if err := f.reach(sz.W + sz.S); err != nil {
			return err
		}
		for k := 1; k <= sz.K; k++ {
			if err := f.reach(sz.W + sz.S + k*sz.M); err != nil {
				return err
			}
			m := migration{start: f.now()}
			var err error
			m.rep, err = migrate(b.mw, b.nodes[k%2].Name, core.MigrateOptions{})
			m.end = f.now()
			if err != nil {
				return fmt.Errorf("migration %d: %w", k, err)
			}
			o.migs = append(o.migs, m)
		}
		return nil
	}()
	if serr := f.stop(); err == nil {
		err = serr
	}
	stopMonitor()
	if err != nil {
		return nil, err
	}
	if f.steadyEnd.at == 0 {
		return nil, errors.New("the steady phase never ended")
	}
	if err := gate(b, o); err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	if o.wall = time.Since(began); o.wall > maxWall {
		return nil, fmt.Errorf("run took %v, over the %v that keeps its shape", o.wall, maxWall)
	}
	if trace {
		if o.layers, err = probe(b, o, traceDir); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
	}
	return o, nil
}

// migrate runs one migration with the shipped strategy and turns a rolled
// back attempt into an error.
func migrate(mw *core.Middleware, dest string, opts core.MigrateOptions) (*core.Report, error) {
	rep, err := mw.Migrate(tenant, dest, opts)
	if err != nil {
		return nil, err
	}
	if rep.Failed {
		return nil, fmt.Errorf("rolled back at %s: %s", rep.RollbackStep, rep.RollbackReason)
	}
	return rep, nil
}

// gate checks what the run must have preserved, after the clients stopped
// and before any metric is printed: the tenant is on exactly one node, that
// node holds exactly the orders the clients saw acknowledged, and one more
// (idle) migration leaves source and destination state-equal (Theorem 1).
func gate(b *bed, o *outcome) error {
	tn, ok := b.mw.Tenant(tenant)
	if !ok {
		return errors.New("the middleware lost the tenant")
	}
	routed, _ := tn.Node()
	var home, other *cluster.Node
	for _, n := range b.nodes {
		if _, ok := n.Engine.Database(tenant); !ok {
			other = n
			continue
		}
		if home != nil {
			return fmt.Errorf("tenant is on both %s and %s", home.Name, n.Name)
		}
		home = n
	}
	if home == nil {
		return errors.New("tenant is on no node")
	}
	if routed.BackendName() != home.Name {
		return fmt.Errorf("middleware routes to %s, data is on %s", routed.BackendName(), home.Name)
	}
	if want := b.nodes[o.sz.K%2]; home != want {
		return fmt.Errorf("after %d migrations the tenant is on %s, want %s", o.sz.K, home.Name, want.Name)
	}

	src, err := home.Engine.NewSession(tenant)
	if err != nil {
		return err
	}
	defer src.Close()
	acked := 0
	for _, c := range o.f.clients {
		acked += c.orders
	}
	got, err := src.RowCount("orders")
	if err != nil {
		return err
	}
	if got != acked {
		return fmt.Errorf("orders has %d rows, clients saw %d BuyConfirm commits acknowledged", got, acked)
	}

	if _, err := migrate(b.mw, other.Name, core.MigrateOptions{KeepSource: true}); err != nil {
		return fmt.Errorf("idle migration: %w", err)
	}
	dst, err := other.Engine.NewSession(tenant)
	if err != nil {
		return err
	}
	defer dst.Close()
	equal, diff, err := engine.StateEqual(src, dst)
	if err != nil {
		return err
	}
	if !equal {
		return fmt.Errorf("source and destination differ after an idle migration: %s", diff)
	}
	return nil
}
