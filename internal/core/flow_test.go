package core

// Backpressure tests: admission control end to end through the wire
// protocol, the SSL byte cap aborting a doomed migration through the rollback
// protocol, the gauge-staleness regression (the SSL depth must return to 0
// after a rollback), and the FLOW admin surface.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"madeus/internal/cluster"
	"madeus/internal/engine"
	"madeus/internal/flow"
	"madeus/internal/obs"
	"madeus/internal/testutil"
	"madeus/internal/wal"
	"madeus/internal/wire"
)

// slowDest builds engine options for a destination that replays slowly
// without burning CPU: every replayed commit pays an exclusive 4ms
// simulated fsync (simlat.IO sleeps), so an unthrottled writer fleet on a
// fast source outruns it by orders of magnitude and the debt diverges.
func slowDest() engine.Options {
	return engine.Options{
		WAL:       wal.Options{SyncDelay: 4 * time.Millisecond, Mode: wal.SerialCommit},
		ExecSlots: 1,
	}
}

// newFlowRig is newRig with explicit middleware options and per-node
// engine options (engOpts[i] configures node i), for scenarios that need
// a flow.Config or an asymmetric cluster (fast source, slow destination).
// A config without a deadline gets newRig's.
func newFlowRig(t *testing.T, mwOpts Options, engOpts ...engine.Options) *testRig {
	t.Helper()
	testutil.CheckGoroutines(t)
	if mwOpts.Flow.Deadline == 0 {
		mwOpts.Flow.Deadline = 30 * time.Second
	}
	mw, err := New(mwOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mw.Close)
	rig := &testRig{mw: mw}
	for i, eo := range engOpts {
		n, err := cluster.NewNode(fmt.Sprintf("node%d", i), cluster.NodeOptions{Engine: eo})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		mw.AddNode(n)
		rig.nodes = append(rig.nodes, n)
	}
	return rig
}

// setKnob retunes one flow knob the way FLOW SET does; the next Migrate
// snapshots it.
func setKnob(t *testing.T, mw *Middleware, name, value string) {
	t.Helper()
	if err := mw.Flow().Set(name, value); err != nil {
		t.Fatal(err)
	}
}

func TestFlowConfigValidatedAtStartup(t *testing.T) {
	_, err := New(Options{Flow: flow.Config{PaceStep: time.Millisecond, PaceMaxDelay: time.Hour}})
	if err == nil {
		t.Fatal("New accepted an invalid flow.Config")
	}
	if !strings.Contains(err.Error(), "PaceMaxDelay") {
		t.Fatalf("error %v does not name the bad knob", err)
	}
}

// TestZeroFlowKeepsTheDeadline: a zero Options.Flow turns the flow layer
// off but still bounds a migration at the default deadline, so a slave
// that cannot catch up is given up rather than migrated forever.
func TestZeroFlowKeepsTheDeadline(t *testing.T) {
	mw, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mw.Close()
	if got := mw.Flow().Config(); got != (flow.Config{Deadline: flow.DefaultDeadline}) {
		t.Fatalf("zero Flow became %+v, want only Deadline %v", got, flow.DefaultDeadline)
	}
}

// TestPaceTargetAboveCatchupRejected: a paced target above the catch-up
// debt is refused at startup and by FLOW SET, and a refused SET leaves the
// running target untouched; the threshold itself is accepted.
func TestPaceTargetAboveCatchupRejected(t *testing.T) {
	bad := flow.DefaultConfig()
	bad.PaceTargetDebt = flow.CatchupDebt + 1
	if _, err := New(Options{Flow: bad}); err == nil || !strings.Contains(err.Error(), "PaceTargetDebt") {
		t.Fatalf("New with pace target %d: err = %v", bad.PaceTargetDebt, err)
	}

	rig := newFlowRig(t, Options{Flow: flow.DefaultConfig()}, engine.Options{})
	admin := rig.connect(t, AdminDB)
	defer admin.Close()
	if _, err := admin.Exec("FLOW SET pace_target_debt 200"); err == nil {
		t.Fatal("FLOW SET accepted pace_target_debt 200 with pacing on")
	}
	if got := rig.mw.Flow().Config().PaceTargetDebt; got != flow.DefaultPaceTargetDebt {
		t.Fatalf("refused SET changed pace_target_debt to %d", got)
	}
	if _, err := admin.Exec(fmt.Sprintf("FLOW SET pace_target_debt %d", flow.CatchupDebt)); err != nil {
		t.Fatalf("FLOW SET pace_target_debt %d: %v", flow.CatchupDebt, err)
	}
}

func TestAdmissionCapShedsTyped(t *testing.T) {
	rig := newFlowRig(t, Options{Flow: flow.Config{MaxSessions: 1}},
		engine.Options{})
	// Client Close is acknowledged asynchronously by the server, so wait
	// for provision's session (and later c1's) to actually release its
	// slot before dialing the next one.
	s0 := flow.Sessions()
	rig.provision(t, "a", 10)
	waitForCond(t, func() bool { return flow.Sessions() == s0 })

	c1 := rig.connect(t, "a")
	defer c1.Close()

	// Cap reached, no queue: the second session is shed immediately with
	// a typed overload error the client sees as a clean dial failure.
	sheds0 := flow.Sheds()
	start := time.Now()
	_, err := wire.Dial(rig.mw.Addr(), "a")
	if err == nil {
		t.Fatal("dial past the session cap succeeded")
	}
	var se *wire.ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "overloaded") {
		t.Fatalf("shed dial error = %v, want a ServerError naming the overload", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("shed took %v; load-shedding must not hang", el)
	}
	if d := flow.Sheds() - sheds0; d != 1 {
		t.Errorf("sheds counter advanced by %d, want 1", d)
	}

	// Releasing the slot (Close) readmits new sessions.
	c1.Close()
	waitForCond(t, func() bool { return flow.Sessions() == s0 })
	c3, err := wire.Dial(rig.mw.Addr(), "a")
	if err != nil {
		t.Fatalf("dial after release: %v", err)
	}
	defer c3.Close()
	if _, err := c3.Exec("SELECT COUNT(*) FROM acct"); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionQueueHandsSlotToWaiter(t *testing.T) {
	rig := newFlowRig(t, Options{Flow: flow.Config{
		MaxSessions: 1, AdmitQueue: 1, AdmitTimeout: 5 * time.Second,
	}}, engine.Options{})
	rig.provision(t, "a", 10)

	c1 := rig.connect(t, "a")
	dialed := make(chan error, 1)
	go func() {
		c2, err := wire.Dial(rig.mw.Addr(), "a")
		if err == nil {
			defer c2.Close()
			_, err = c2.Exec("SELECT COUNT(*) FROM acct")
		}
		dialed <- err
	}()
	// The second dial parks in the admission queue...
	waitForCond(t, func() bool { return flow.AdmitQueueDepth() > 0 })
	select {
	case err := <-dialed:
		t.Fatalf("queued dial returned early: %v", err)
	default:
	}
	// ...until the first session closes and hands its slot over.
	c1.Close()
	select {
	case err := <-dialed:
		if err != nil {
			t.Fatalf("handed-off session: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued dial never completed after the slot freed")
	}
}

func TestAdmissionQueueTimeoutSheds(t *testing.T) {
	rig := newFlowRig(t, Options{Flow: flow.Config{
		MaxSessions: 1, AdmitQueue: 4, AdmitTimeout: 100 * time.Millisecond,
	}}, engine.Options{})
	rig.provision(t, "a", 10)

	c1 := rig.connect(t, "a")
	defer c1.Close()
	start := time.Now()
	_, err := wire.Dial(rig.mw.Addr(), "a")
	el := time.Since(start)
	var se *wire.ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "timed out") {
		t.Fatalf("queued dial past AdmitTimeout = %v, want admission-timeout ServerError", err)
	}
	if el < 80*time.Millisecond || el > 3*time.Second {
		t.Fatalf("queued dial shed after %v, want ~100ms", el)
	}
}

// TestSSLCapOverflowAbortsMigration pins the bounded-SSL contract: when the
// capture buffer breaches its byte cap mid-propagation, the migration
// aborts through the rollback protocol (typed flow.ErrSSLOverflow, accurate
// report) instead of growing without limit, and service continues on the
// source.
func TestSSLCapOverflowAbortsMigration(t *testing.T) {
	// About 16 of loadgen's syncsets (a read and an update each).
	syncset := (&SSB{Entries: []Entry{
		{SQL: "SELECT bal FROM acct WHERE id = 100"},
		{SQL: "UPDATE acct SET bal = bal + 1 WHERE id = 100"},
	}}).MemSize()
	rig := newFlowRig(t,
		Options{Flow: flow.Config{MaxSSLBytes: 16 * syncset}},
		engine.Options{}, // node0: fast source
		// node1: slow destination. The slowdown must be sleep-based (WAL
		// fsync latency), not StmtCost: simlat.CPU busy-waits, and on a
		// single-core box that starves the source writers too, so the
		// system self-throttles and never diverges.
		slowDest(),
	)
	rig.provision(t, "a", 120)
	tn, _ := rig.mw.Tenant("a")

	const writers = 3
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

	over0 := flow.Overflows()
	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus})
	if err == nil {
		t.Fatal("migration succeeded; the 16-syncset byte cap should have aborted it")
	}
	if !errors.Is(err, flow.ErrSSLOverflow) {
		t.Fatalf("err = %v, want flow.ErrSSLOverflow", err)
	}
	if rep.RollbackStep != "step3.propagate" || !strings.Contains(rep.RollbackReason, "cap breached") {
		t.Errorf("rollback step=%q reason=%q", rep.RollbackStep, rep.RollbackReason)
	}
	if flow.Overflows() == over0 {
		t.Error("ssl_overflows counter did not advance")
	}
	if st := tn.State(); st != StateNormal {
		t.Fatalf("tenant state after overflow rollback = %v, want normal", st)
	}
}

// TestSSLGaugesResetAfterRollback is the satellite regression: the depth
// and the flow byte/op gauges used to be updated only on link, so a rolled
// back migration left them frozen at their last value. They must read 0
// once the rollback's stopCapture discards the SSL.
func TestSSLGaugesResetAfterRollback(t *testing.T) {
	bytes0 := flow.SSLBytes()
	rig := newFlowRig(t,
		Options{Flow: flow.Config{Deadline: 1200 * time.Millisecond}},
		engine.Options{},
		slowDest(),
	)
	rig.provision(t, "a", 120)
	tn, _ := rig.mw.Tenant("a")
	// No debt is ever at or below -1, so Step 3 never counts as caught
	// up and the deadline always rolls the attempt back, however fast the
	// slave replays on this host.
	rig.mw.catchupDebt = -1

	const writers = 4
	stop := make(chan struct{})
	done := make(chan int, writers)
	for w := 0; w < writers; w++ {
		go loadgen(t, rig, "a", w, 0, stop, done)
	}
	stopped := false
	quiesce := func() {
		if stopped {
			return
		}
		stopped = true
		close(stop)
		for w := 0; w < writers; w++ {
			<-done
		}
	}
	defer quiesce()
	time.Sleep(30 * time.Millisecond)

	// The slave never catches up; the deadline fires and the watchdog
	// rolls the attempt back.
	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus})
	if !errors.Is(err, flow.ErrDeadline) {
		t.Fatalf("err = %v, want flow.ErrDeadline", err)
	}
	if rep.RollbackStep != "step3.propagate" || !strings.Contains(rep.RollbackReason, "deadline") {
		t.Errorf("rollback step=%q reason=%q", rep.RollbackStep, rep.RollbackReason)
	}

	// Quiesce the writers before reading the gauges: an in-flight commit
	// could otherwise race the assertion.
	quiesce()

	depth, found := tenantMetricPrefix+"a.ssl.depth", false
	for _, m := range obs.Default.Snapshot() {
		if m.Name == depth {
			found = true
			if m.Value != 0 {
				t.Errorf("%s after rollback = %d, want 0", depth, m.Value)
			}
		}
	}
	if !found {
		t.Errorf("gauge %s is not registered", depth)
	}
	if got := flow.SSLBytes(); got != bytes0 {
		t.Errorf("flow.ssl.bytes after rollback = %d, want %d (pre-test value)", got, bytes0)
	}
	if mon := tn.Monitor(); mon.SSLDepth != 0 || mon.SSLBytes != 0 {
		t.Errorf("monitor after rollback: depth=%d bytes=%d, want 0/0", mon.SSLDepth, mon.SSLBytes)
	}
	if st := tn.State(); st != StateNormal {
		t.Fatalf("tenant state after rollback = %v, want normal", st)
	}
}

func TestFlowAdminRoundTrip(t *testing.T) {
	rig := newFlowRig(t, Options{Flow: flow.Config{MaxSessions: 7}}, engine.Options{})
	admin := rig.connect(t, AdminDB)
	defer admin.Close()

	knob := func(res map[string]string, k string) string { return res[k] }
	list := func() map[string]string {
		t.Helper()
		res, err := admin.Exec("FLOW")
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string, len(res.Rows))
		for _, row := range res.Rows {
			out[row[0].Str] = row[1].Str
		}
		return out
	}

	if got := knob(list(), "max_sessions"); got != "7" {
		t.Fatalf("FLOW max_sessions = %q, want 7", got)
	}
	for _, cmd := range []string{
		"FLOW SET pace_step 2ms",
		"FLOW SET pace_max_delay 20ms",
		"FLOW SET max_ssl_bytes 1048576",
	} {
		if _, err := admin.Exec(cmd); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
	}
	got := list()
	if got["pace_max_delay"] != "20ms" || got["max_ssl_bytes"] != "1048576" {
		t.Fatalf("FLOW after SET: pace_max_delay=%q max_ssl_bytes=%q", got["pace_max_delay"], got["max_ssl_bytes"])
	}
	// The counters ride along in the same listing.
	for _, k := range []string{"sheds", "stalls", "deadline_aborts", "ssl_bytes", "sessions"} {
		if _, ok := got[k]; !ok {
			t.Errorf("FLOW listing is missing %q", k)
		}
	}
	// A bad value must be rejected and leave the running config untouched.
	if _, err := admin.Exec("FLOW SET pace_max_delay 1h"); err == nil {
		t.Fatal("FLOW SET accepted pace_max_delay 1h")
	}
	// The byte cap is the SSL's only cap: no syncset-count knob.
	for _, cmd := range []string{"FLOW SET no_such_knob 1", "FLOW SET max_ssl_syncsets 1"} {
		if _, err := admin.Exec(cmd); err == nil {
			t.Fatalf("%s: accepted an unknown knob", cmd)
		}
	}
	if got := knob(list(), "pace_max_delay"); got != "20ms" {
		t.Fatalf("failed SET mutated config: pace_max_delay = %q", got)
	}
}

func waitForCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
