package bench

import (
	"context"
	"errors"
	"fmt"
	"time"

	"madeus/internal/cluster"
	"madeus/internal/core"
	"madeus/internal/engine"
	"madeus/internal/flow"
	"madeus/internal/metrics"
	"madeus/internal/tpcw"
	"madeus/internal/wal"
	"madeus/internal/wire"
)

// Convergence is the backpressure ablation (not a paper figure): one
// heavy-write tenant migrating to a destination whose replay is bottlenecked
// by an exclusive serial fsync. It runs the same migration twice — pacing
// off, then on — and reports what each run cost: outcome, wall time, peak
// debt, peak SSL memory, and the strongest commit brake applied. The unpaced
// run is the seed behavior (debt diverges until the deadline watchdog aborts
// through the rollback protocol); the paced run converges and switches over
// with SSL memory bounded throughout.
func Convergence(cfg Config) (*Table, error) {
	fcfg := flow.Config{
		MaxSSLBytes:    64 << 20,
		PaceTargetDebt: 64,
		PaceStep:       10 * time.Millisecond,
		PaceMaxDelay:   flow.MaxPaceDelay,
		Deadline:       cfg.Deadline,
	}
	mw, err := core.New(core.Options{Flow: fcfg})
	if err != nil {
		return nil, err
	}
	defer mw.Close()

	// Asymmetric nodes are the whole experiment: a fast source (short lock
	// timeout so the hot TPC-W rows never convoy) against a destination
	// whose one executor pays a serial fsync per replayed commit.
	src, err := cluster.NewNode("node0", cluster.NodeOptions{
		Engine: engine.Options{LockTimeout: 50 * time.Millisecond},
	})
	if err != nil {
		return nil, err
	}
	defer src.Close()
	dst, err := cluster.NewNode("node1", cluster.NodeOptions{
		Engine: engine.Options{
			WAL:       wal.Options{SyncDelay: 4 * time.Millisecond, Mode: wal.SerialCommit},
			ExecSlots: 1,
		},
	})
	if err != nil {
		return nil, err
	}
	defer dst.Close()
	mw.AddNode(src)
	mw.AddNode(dst)

	const tenant = "shop"
	scale := tpcw.Scale{Items: 20, Customers: 60, Authors: 5}
	if err := mw.ProvisionTenant(tenant, "node0"); err != nil {
		return nil, err
	}
	{
		c, err := wire.Dial(mw.Addr(), tenant)
		if err != nil {
			return nil, err
		}
		if err := tpcw.Load(c, scale); err != nil {
			c.Close()
			return nil, err
		}
		c.Close()
	}
	tn, ok := mw.Tenant(tenant)
	if !ok {
		return nil, fmt.Errorf("bench: tenant %s vanished", tenant)
	}

	// Heavy-write fleet: ordering mix (50% updates), no think time.
	ctx, cancel := context.WithCancel(context.Background())
	fleetErr := make(chan error, 1)
	go func() {
		fleetErr <- tpcw.RunFleet(ctx, 4, tpcw.Ordering, scale, 0,
			func() (tpcw.Execer, error) { return wire.Dial(mw.Addr(), tenant) },
			metrics.NewRecorder())
	}()
	defer func() {
		cancel()
		<-fleetErr
	}()
	time.Sleep(100 * time.Millisecond) // ramp up

	t := &Table{
		Title:  "convergence: heavy-write migration, pacing off vs on",
		Header: []string{"pacing", "outcome", "time", "peak debt", "peak SSL", "peak delay", "syncsets"},
	}

	// The unpaced leg retunes the middleware the way FLOW SET does: pacing
	// off and a deadline. Migrate snapshots the flow config per attempt, so
	// restoring it afterwards governs the paced leg.
	unpacedCfg := fcfg
	unpacedCfg.PaceMaxDelay = 0
	unpacedCfg.Deadline = 1500 * time.Millisecond
	if err := mw.Flow().Update(unpacedCfg); err != nil {
		return nil, err
	}
	unpaced, err := convergenceRun(mw, tn, tenant, core.MigrateOptions{Strategy: core.Madeus})
	if err != nil {
		return nil, err
	}
	t.AddRow(unpaced.row("off")...)

	if err := mw.Flow().Update(fcfg); err != nil {
		return nil, err
	}
	paced, err := convergenceRun(mw, tn, tenant, core.MigrateOptions{Strategy: core.Madeus})
	if err != nil {
		return nil, err
	}
	t.AddRow(paced.row("on")...)

	t.Note("destination replay bottleneck: 1 exec slot behind a 4ms serial fsync")
	t.Note("unpaced deadline %v; paced run uses the adaptive MIMD controller (target debt %d)", unpacedCfg.Deadline, fcfg.PaceTargetDebt)
	return t, nil
}

// convergenceResult is one migration attempt's measurements.
type convergenceResult struct {
	outcome   string
	elapsed   time.Duration
	peakDebt  int
	peakSSL   int64
	peakDelay time.Duration
	syncsets  int
}

func (r convergenceResult) row(pacing string) []string {
	return []string{
		pacing,
		r.outcome,
		r.elapsed.Round(time.Millisecond).String(),
		fmt.Sprint(r.peakDebt),
		fmt.Sprintf("%.1f MiB", float64(r.peakSSL)/(1<<20)),
		r.peakDelay.Round(time.Millisecond).String(),
		fmt.Sprint(r.syncsets),
	}
}

// convergenceRun migrates once under the running fleet, sampling the tenant
// monitor for the peaks. A deadline or stall abort is an expected outcome
// for the unpaced leg, not an error.
func convergenceRun(mw *core.Middleware, tn *core.Tenant, tenant string,
	opts core.MigrateOptions) (convergenceResult, error) {
	stop := make(chan struct{})
	done := make(chan struct{})
	var res convergenceResult
	go func() {
		defer close(done)
		// One reusable ticker-style timer; time.After here would allocate
		// a fresh timer per 50ms sample for the whole migration.
		tick := time.NewTimer(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				tick.Reset(50 * time.Millisecond)
			}
			mon := tn.Monitor()
			if mon.Debt > res.peakDebt {
				res.peakDebt = mon.Debt
			}
			if mon.SSLBytes > res.peakSSL {
				res.peakSSL = mon.SSLBytes
			}
			if mon.PaceDelay > res.peakDelay {
				res.peakDelay = mon.PaceDelay
			}
		}
	}()

	start := time.Now()
	rep, err := mw.Migrate(tenant, "node1", opts)
	res.elapsed = time.Since(start)
	close(stop)
	<-done

	switch {
	case err == nil:
		res.outcome = "converged"
	case errors.Is(err, flow.ErrDeadline):
		res.outcome = "deadline abort"
	case errors.Is(err, flow.ErrStalled):
		res.outcome = "stall abort"
	default:
		return res, err
	}
	if rep != nil {
		res.syncsets = rep.Propagation.Syncsets
	}
	return res, nil
}
