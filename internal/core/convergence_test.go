package core

// Overload and convergence suite: a TPC-W heavy-write fleet against a
// destination whose replay is rate-limited by an exclusive simulated fsync.
// On that rig the seed behavior (no pacing) demonstrably diverges — debt
// grows monotonically until the watchdog aborts — while the adaptive pacer
// brakes the source until the same migration converges and switches over,
// with SSL memory bounded the whole way.

import (
	"context"
	"errors"
	"testing"
	"time"

	"madeus/internal/engine"
	"madeus/internal/flow"
	"madeus/internal/metrics"
	"madeus/internal/tpcw"
	"madeus/internal/wire"
)

// debtSampler polls the tenant monitor in the background and records the
// debt trajectory plus the peaks the assertions need.
type debtSampler struct {
	stop chan struct{}
	done chan struct{}

	debts        []int // samples taken while in step3.propagate
	peakSSLBytes int64
	peakDelay    time.Duration
}

func startSampler(tn *Tenant) *debtSampler {
	s := &debtSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for {
			select {
			case <-s.stop:
				return
			case <-time.After(100 * time.Millisecond):
			}
			mon := tn.Monitor()
			if mon.SSLBytes > s.peakSSLBytes {
				s.peakSSLBytes = mon.SSLBytes
			}
			if mon.PaceDelay > s.peakDelay {
				s.peakDelay = mon.PaceDelay
			}
			if mon.Phase == "step3.propagate" {
				s.debts = append(s.debts, mon.Debt)
			}
		}
	}()
	return s
}

func (s *debtSampler) join() {
	close(s.stop)
	<-s.done
}

func TestHeavyWriteMigrationConvergesWithPacing(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second overload scenario")
	}
	if raceEnabled {
		// The divergence phase is calibrated against uninstrumented writer
		// throughput; race-instrumented EBs cannot outrun even the slowed
		// destination. verify.sh runs this test without -race.
		t.Skip("race detector throttles the writer fleet below divergence pressure")
	}
	fcfg := flow.Config{
		MaxSSLBytes:    64 << 20,
		PaceTargetDebt: 64,
		PaceStep:       10 * time.Millisecond,
		PaceMaxDelay:   250 * time.Millisecond,
		Deadline:       30 * time.Second,
	}
	// The source's lock timeout must be short: the engine's 2s default
	// lets the small-item-count TPC-W mix convoy on hot rows, and a
	// convoyed fleet generates too little write pressure to diverge.
	// Aborted waiters retry immediately, which keeps the source hot.
	rig := newFlowRig(t, Options{Flow: fcfg},
		engine.Options{LockTimeout: 50 * time.Millisecond}, // fast source
		slowDest(),
	)
	if err := rig.mw.ProvisionTenant("a", "node0"); err != nil {
		t.Fatal(err)
	}
	tn, _ := rig.mw.Tenant("a")
	scale := tpcw.Scale{Items: 20, Customers: 60, Authors: 5}
	{
		c := rig.connect(t, "a")
		if err := tpcw.Load(c, scale); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}

	// Heavy-write fleet: 4 EBs, ordering mix (50% updates), no think time.
	ctx, cancel := context.WithCancel(context.Background())
	fleetErr := make(chan error, 1)
	go func() {
		fleetErr <- tpcw.RunFleet(ctx, 4, tpcw.Ordering, scale, 0,
			func() (tpcw.Execer, error) { return wire.Dial(rig.mw.Addr(), "a") },
			metrics.NewRecorder())
	}()
	defer func() {
		cancel()
		if err := <-fleetErr; err != nil {
			t.Errorf("fleet: %v", err)
		}
	}()
	time.Sleep(100 * time.Millisecond) // let the fleet ramp up

	// Phase A — the seed behavior: pacing disabled, the destination
	// cannot keep up, and the debt diverges until the deadline watchdog
	// aborts the attempt through the rollback protocol.
	unpaced := fcfg
	unpaced.PaceMaxDelay = 0
	unpaced.Deadline = 1500 * time.Millisecond
	if err := rig.mw.Flow().Update(unpaced); err != nil {
		t.Fatal(err)
	}
	sampler := startSampler(tn)
	_, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus})
	sampler.join()
	if !errors.Is(err, flow.ErrDeadline) {
		t.Fatalf("unpaced migration: err = %v, want flow.ErrDeadline", err)
	}
	if len(sampler.debts) < 5 {
		t.Fatalf("only %d debt samples during propagation", len(sampler.debts))
	}
	for i := 1; i < len(sampler.debts); i++ {
		if sampler.debts[i] < sampler.debts[i-1] {
			t.Fatalf("unpaced debt not monotonically increasing: %v", sampler.debts)
		}
	}
	first, last := sampler.debts[0], sampler.debts[len(sampler.debts)-1]
	if last < first+500 {
		t.Fatalf("unpaced debt grew only %d -> %d; no divergence", first, last)
	}
	t.Logf("unpaced: debt %d -> %d over %d samples, then deadline abort", first, last, len(sampler.debts))
	if got := flow.SSLBytes(); got != 0 {
		t.Fatalf("flow.ssl.bytes after rollback = %d, want 0", got)
	}

	// Phase B — same fleet, same slow destination, pacing on: the
	// controller brakes the source until replay outruns capture, the debt
	// drains, and the switchover completes, with SSL memory under the cap
	// throughout.
	if err := rig.mw.Flow().Update(fcfg); err != nil {
		t.Fatal(err)
	}
	sampler = startSampler(tn)
	start := time.Now()
	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus})
	converged := time.Since(start)
	sampler.join()
	if err != nil {
		t.Fatalf("paced migration failed after %v: %v", converged, err)
	}
	if rep.RollbackStep != "" {
		t.Fatalf("paced migration rolled back at %s: %s", rep.RollbackStep, rep.RollbackReason)
	}
	if tn.Monitor().Node != "node1" {
		t.Fatalf("tenant still on %s after migration", tn.Monitor().Node)
	}
	if sampler.peakDelay == 0 {
		t.Error("pacer never engaged: peak commit delay is 0")
	}
	if sampler.peakSSLBytes == 0 || sampler.peakSSLBytes > fcfg.MaxSSLBytes {
		t.Errorf("peak SSL bytes %d, want in (0, %d]", sampler.peakSSLBytes, fcfg.MaxSSLBytes)
	}
	if d := tn.Monitor().PaceDelay; d != 0 {
		t.Errorf("pace delay %v after migration, want 0 (brake must release)", d)
	}
	t.Logf("paced: converged in %v, peak debt delay %v, peak SSL %d bytes, %d syncsets",
		converged, sampler.peakDelay, sampler.peakSSLBytes, rep.Propagation.Syncsets)
}

// TestUnpacedOverloadAbortsCleanly pins the "no hang" half of the
// guarantee at a smaller scale: with pacing disabled and a short deadline,
// the watchdog aborts via rollback rather than letting Step 3 camp on a
// slave that cannot catch up, and the tenant is immediately usable on the
// source.
func TestUnpacedOverloadAbortsCleanly(t *testing.T) {
	rig := newFlowRig(t, Options{Flow: flow.Config{Deadline: 800 * time.Millisecond}},
		engine.Options{},
		slowDest(),
	)
	rig.provision(t, "a", 120)
	tn, _ := rig.mw.Tenant("a")

	const writers = 4
	stop := make(chan struct{})
	done := make(chan int, writers)
	for w := 0; w < writers; w++ {
		go loadgen(t, rig, "a", w, 0, stop, done)
	}
	defer func() {
		close(stop)
		for w := 0; w < writers; w++ {
			<-done
		}
	}()
	time.Sleep(30 * time.Millisecond)

	aborts0 := flow.DeadlineAborts()
	start := time.Now()
	_, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus})
	elapsed := time.Since(start)
	if !errors.Is(err, flow.ErrDeadline) {
		t.Fatalf("err = %v, want flow.ErrDeadline", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("abort took %v; the watchdog must fire near the 800ms deadline", elapsed)
	}
	if flow.DeadlineAborts() == aborts0 {
		t.Error("deadline_aborts counter did not advance")
	}
	if st := tn.State(); st != StateNormal {
		t.Fatalf("tenant state after abort = %v, want normal", st)
	}
	// Service continues on the source.
	c := rig.connect(t, "a")
	defer c.Close()
	if _, err := c.Exec("SELECT COUNT(*) FROM acct"); err != nil {
		t.Fatalf("source unusable after abort: %v", err)
	}
}
