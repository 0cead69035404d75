//go:build faultinject

package core

// Overload chaos: the backpressure layer under deliberately hostile
// conditions. A dial burst against a full admission queue must shed with
// typed busy errors instead of hanging; a destination slowed by injected
// replay latency must hit the migration deadline and roll back with an
// accurate report; and a destination that hangs mid-replay must be caught
// by the stall watchdog long before the per-operation timeout storm.
// Run with: go test -tags faultinject -race .

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"madeus/internal/engine"
	"madeus/internal/fault"
	"madeus/internal/flow"
	"madeus/internal/wire"
)

// TestChaosAdmissionBurst slams one tenant with a dial burst several times
// the cap+queue budget. Everything past the budget must shed immediately
// with a typed overload error; queued dials past AdmitTimeout must shed
// too; nothing may hang.
func TestChaosAdmissionBurst(t *testing.T) {
	t.Cleanup(fault.Reset)
	rig := newFlowRig(t, Options{Flow: flow.Config{
		MaxSessions: 2, AdmitQueue: 2, AdmitTimeout: 300 * time.Millisecond,
	}}, engine.Options{})
	s0 := flow.Sessions()
	rig.provision(t, "a", 10)
	waitForCond(t, func() bool { return flow.Sessions() == s0 })

	const burst = 12
	var (
		mu        sync.Mutex
		admitted  []*wire.Client
		sheds     int
		slowest   time.Duration
		badErrors []error
	)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			c, err := wire.Dial(rig.mw.Addr(), "a")
			el := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			if el > slowest {
				slowest = el
			}
			if err == nil {
				admitted = append(admitted, c)
				return
			}
			var se *wire.ServerError
			if errors.As(err, &se) && strings.Contains(se.Msg, "overloaded") {
				sheds++
			} else {
				badErrors = append(badErrors, err)
			}
		}()
	}
	wg.Wait()
	defer func() {
		for _, c := range admitted {
			c.Close()
		}
	}()

	if len(badErrors) > 0 {
		t.Fatalf("burst produced non-overload errors: %v", badErrors)
	}
	// Exactly MaxSessions dials hold slots; the rest shed (the two queued
	// dials time out at 300ms because the holders never release).
	if len(admitted) != 2 || sheds != burst-2 {
		t.Errorf("admitted %d sheds %d, want 2 and %d", len(admitted), sheds, burst-2)
	}
	if slowest > 5*time.Second {
		t.Errorf("slowest dial took %v; shedding must not hang", slowest)
	}
	// The admitted sessions still work — shedding is load management, not
	// an outage.
	for _, c := range admitted {
		if _, err := c.Exec("SELECT COUNT(*) FROM acct"); err != nil {
			t.Fatalf("admitted session unusable: %v", err)
		}
	}
}

// TestChaosInjectedAdmissionShed drives the flow.admit failpoint directly:
// an injected admission error must reach the client as a clean startup
// failure and count as a shed.
func TestChaosInjectedAdmissionShed(t *testing.T) {
	t.Cleanup(fault.Reset)
	rig := newFlowRig(t, Options{Flow: flow.Config{MaxSessions: 8}}, engine.Options{})
	s0 := flow.Sessions()
	rig.provision(t, "a", 10)
	waitForCond(t, func() bool { return flow.Sessions() == s0 })

	sheds0 := flow.Sheds()
	fault.Enable("flow.admit", fault.Policy{Times: 1})
	_, err := wire.Dial(rig.mw.Addr(), "a")
	var se *wire.ServerError
	if err == nil || !errors.As(err, &se) {
		t.Fatalf("dial with injected admission fault = %v, want ServerError", err)
	}
	if flow.Sheds() == sheds0 {
		t.Error("injected admission error not counted as a shed")
	}
	// The fault was Times:1 — the next dial is admitted.
	c, err := wire.Dial(rig.mw.Addr(), "a")
	if err != nil {
		t.Fatalf("dial after fault drained: %v", err)
	}
	c.Close()
}

// TestChaosInjectedReplayLatencyHitsDeadline slows every replayed statement
// with injected latency so the destination cannot catch up, and pins that
// the unpaced migration dies at its deadline — through the rollback
// protocol, with an accurate report — and is re-migratable once the fault
// is lifted.
func TestChaosInjectedReplayLatencyHitsDeadline(t *testing.T) {
	t.Cleanup(fault.Reset)
	rig := newRig(t, 2, engine.Options{})
	rig.provision(t, "a", 120)
	tn, _ := rig.mw.Tenant("a")

	const writers = 3
	stop := make(chan struct{})
	done := make(chan int, writers)
	for w := 0; w < writers; w++ {
		go loadgen(t, rig, "a", w, 3*time.Millisecond, stop, done)
	}
	defer func() {
		close(stop)
		for w := 0; w < writers; w++ {
			<-done
		}
	}()
	time.Sleep(30 * time.Millisecond)
	// Step 3 opens with more debt than the catch-up threshold allows, and
	// the slowed slave only falls further behind.
	rig.hook(1, captureDuringRestore(t, tn, 100))

	aborts0 := flow.DeadlineAborts()
	setKnob(t, rig.mw, "deadline", "1s")
	fault.Enable(faultStep3Exec, fault.Policy{Delay: 20 * time.Millisecond})
	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus})
	fault.Reset()
	setKnob(t, rig.mw, "deadline", "0s")
	if !errors.Is(err, flow.ErrDeadline) {
		t.Fatalf("err = %v, want flow.ErrDeadline", err)
	}
	if !rep.Failed || rep.RollbackStep != "step3.propagate" || !strings.Contains(rep.RollbackReason, "deadline") {
		t.Errorf("report: failed=%v step=%q reason=%q", rep.Failed, rep.RollbackStep, rep.RollbackReason)
	}
	if flow.DeadlineAborts() == aborts0 {
		t.Error("deadline_aborts counter did not advance")
	}
	if st := tn.State(); st != StateNormal {
		t.Fatalf("state after deadline rollback = %v, want normal", st)
	}
	// Fault lifted: the same migration now completes.
	rep2, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus})
	if err != nil || rep2.Failed {
		t.Fatalf("re-migration after deadline rollback: %v (failed=%v)", err, rep2 != nil && rep2.Failed)
	}
}

// TestChaosHungSlaveStallDetected hangs the destination mid-replay. The
// per-operation timeout (10s by default) would eventually surface it as a
// connection loss, but the stall watchdog must catch the flat-lined
// progress first: StallWindow is 400ms here and the whole abort completes
// in a small fraction of the op-timeout storm it preempts.
func TestChaosHungSlaveStallDetected(t *testing.T) {
	t.Cleanup(fault.Reset)
	rig := newRig(t, 2, engine.Options{})
	rig.provision(t, "a", 120)
	tn, _ := rig.mw.Tenant("a")

	const writers = 3
	stop := make(chan struct{})
	done := make(chan int, writers)
	for w := 0; w < writers; w++ {
		go loadgen(t, rig, "a", w, 3*time.Millisecond, stop, done)
	}
	defer func() {
		close(stop)
		for w := 0; w < writers; w++ {
			<-done
		}
	}()
	time.Sleep(30 * time.Millisecond)
	rig.hook(1, captureDuringRestore(t, tn, writers)) // something to hang on

	stalls0 := flow.Stalls()
	fault.Enable(faultStep3Exec, fault.Policy{Hang: true, Times: 1})
	// A hung player parks inside fault.Inject and blocks the group
	// pipeline, so the rollback's abortAll cannot join until the site is
	// released. The release hook waits for the watchdog to fire first —
	// proving detection does not depend on the hang clearing.
	released := make(chan struct{})
	go func() {
		defer close(released)
		deadline := time.Now().Add(20 * time.Second)
		for flow.Stalls() == stalls0 {
			if time.Now().After(deadline) {
				t.Error("stall watchdog never fired")
				return
			}
			time.Sleep(time.Millisecond)
		}
		fault.Release(faultStep3Exec)
	}()

	setKnob(t, rig.mw, "stall_window", "400ms")
	start := time.Now()
	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus})
	elapsed := time.Since(start)
	<-released
	fault.Reset()
	setKnob(t, rig.mw, "stall_window", "0s")

	if !errors.Is(err, flow.ErrStalled) {
		t.Fatalf("err = %v, want flow.ErrStalled", err)
	}
	if !rep.Failed || rep.RollbackStep != "step3.propagate" || !strings.Contains(rep.RollbackReason, "stalled") {
		t.Errorf("report: failed=%v step=%q reason=%q", rep.Failed, rep.RollbackStep, rep.RollbackReason)
	}
	if elapsed > 5*time.Second {
		t.Errorf("stall abort took %v; must beat the 10s op-timeout storm", elapsed)
	}
	if st := tn.State(); st != StateNormal {
		t.Fatalf("state after stall rollback = %v, want normal", st)
	}
	// The hang was Times:1 and has been released: re-migration succeeds.
	rep2, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus})
	if err != nil || rep2.Failed {
		t.Fatalf("re-migration after stall rollback: %v", err)
	}
}

// TestChaosFlowSetGovernsNextAttempt pins the snapshot contract the
// watchdog and pacing rely on: Migrate reads the flow config once per
// attempt. A FLOW SET deadline or max_ssl_bytes issued while an attempt is
// held at a failpoint leaves that attempt alone, even when a syncset then
// links past the new cap; issued between attempts, it governs the next one.
func TestChaosFlowSetGovernsNextAttempt(t *testing.T) {
	t.Cleanup(fault.Reset)
	rig := newRig(t, 2, engine.Options{})
	rig.provision(t, "a", 50)
	tn, _ := rig.mw.Tenant("a")
	admin := rig.connect(t, AdminDB)
	defer admin.Close()
	flowSet := func(knob, value string) {
		t.Helper()
		if _, err := admin.Exec("FLOW SET " + knob + " " + value); err != nil {
			t.Fatal(err)
		}
	}

	type result struct {
		rep *Report
		err error
	}
	fault.Enable(faultStep1Dump, fault.Policy{Hang: true, Times: 1})
	held := make(chan result, 1)
	go func() {
		rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus})
		held <- result{rep, err}
	}()
	waitForCond(t, func() bool { return fault.SiteFired(faultStep1Dump) == 1 })
	// 1ns: an attempt that read this deadline is past it at its first check.
	flowSet("deadline", "1ns")
	// One byte is below any syncset, and the held attempt is capturing
	// (its snapshot is taken), so this commit links past the new cap.
	flowSet("max_ssl_bytes", "1")
	c := rig.connect(t, "a")
	mustExecAll(t, c, "UPDATE acct SET bal = bal + 1 WHERE id = 1")
	c.Close()
	if n := tn.SSLLen(); n != 1 {
		t.Fatalf("held attempt's SSL holds %d syncsets, want the one update", n)
	}
	fault.Release(faultStep1Dump)
	if r := <-held; r.err != nil {
		t.Fatalf("attempt in flight during FLOW SET deadline and max_ssl_bytes: %v; want it run under its own snapshot", r.err)
	}
	if node, _ := tn.Node(); node.BackendName() != "node1" {
		t.Fatalf("tenant is on %s after the held attempt, want node1", node.BackendName())
	}
	flowSet("max_ssl_bytes", "0")

	rep, err := rig.mw.Migrate("a", "node0", MigrateOptions{Strategy: Madeus})
	if !errors.Is(err, flow.ErrDeadline) {
		t.Fatalf("attempt after FLOW SET deadline 1ns: err = %v, want flow.ErrDeadline", err)
	}
	if rep.RollbackStep != "step3.propagate" {
		t.Errorf("rollback step = %q, want step3.propagate", rep.RollbackStep)
	}

	flowSet("deadline", "0s")
	if _, err := rig.mw.Migrate("a", "node0", MigrateOptions{Strategy: Madeus}); err != nil {
		t.Fatalf("attempt after FLOW SET deadline 0s: %v", err)
	}
	if node, _ := tn.Node(); node.BackendName() != "node0" {
		t.Fatalf("tenant is on %s, want node0", node.BackendName())
	}
}
