//go:build faultinject

package core

// Chaos suite: every migration step is killed (or slowed, or hung, or
// partitioned) through the internal/fault failpoint registry while customer
// writers hammer the source, and each scenario must end in the same place:
// no client-visible error on the source path, the tenant back in normal
// single-master service, an accurate rollback report, and a follow-up
// migration that succeeds. Goroutine leaks are caught by newRig's
// testutil.CheckGoroutines. Run with: go test -tags faultinject -race .

import (
	"strings"
	"testing"
	"time"

	"madeus/internal/engine"
	"madeus/internal/fault"
)

type chaosCase struct {
	name    string
	nodes   int      // rig size; default 2 (node0 = source, node1 = dest)
	backups []string // extra destinations for MigrateOptions.Backups
	arm     func()   // installs the failpoints just before Migrate
	// chunk, when nonzero, shrinks the statements per dump chunk so a
	// mid-stream failpoint has a stream to land in.
	chunk int
	// during runs concurrently with Migrate (crash injection, hang
	// release); runChaos joins it before asserting.
	during func(t *testing.T, rig *testRig, tn *Tenant)

	// wantStep non-empty: the migration must roll back at this step with
	// wantReason as a substring of Report.RollbackReason, and a follow-up
	// migration to remigrate (default "node1") must succeed. Empty: the
	// migration must succeed despite the fault.
	wantStep   string
	wantReason string
	remigrate  string

	minDiscarded int // lower bound on len(Report.Discarded)
}

func chaosScenarios() []chaosCase {
	return []chaosCase{
		{
			name:       "dump_error",
			arm:        func() { fault.Enable(faultStep1Dump, fault.Policy{Times: 1}) },
			wantStep:   "step1.snapshot",
			wantReason: "injected",
		},
		{
			name:       "restore_error_no_survivor",
			arm:        func() { fault.Enable(faultStep2Restore, fault.Policy{Times: 1}) },
			wantStep:   "step2.restore",
			wantReason: "injected",
		},
		{
			name:         "restore_error_backup_survives",
			nodes:        3,
			backups:      []string{"node2"},
			arm:          func() { fault.Enable(faultStep2Restore, fault.Policy{Times: 1}) },
			minDiscarded: 1,
		},
		{
			name: "chunk_stream_drop_mid_transfer",
			// The dump stream's connection drops after two chunks made it
			// across: the client poisons the session, Step 1 fails, and
			// the whole migration rolls back with the source untouched.
			chunk: 1,
			arm: func() {
				fault.Enable(faultStep1Chunk, fault.Policy{Drop: true, Skip: 2})
			},
			wantStep:   "step1.snapshot",
			wantReason: "injected",
		},
		{
			name: "schema_chunk_restore_error_no_survivor",
			// Chunk 0 — the schema, the restore's one serial barrier —
			// fails before any applier has started.
			chunk: 1,
			arm: func() {
				fault.Enable(faultStep1Restore, fault.Policy{Times: 1})
			},
			wantStep:   "step2.restore",
			wantReason: "injected",
		},
		{
			name: "chunk_restore_error_no_survivor",
			// A restore applier fails on the third chunk; the only slave
			// is discarded and the migration rolls back at Step 2.
			chunk: 1,
			arm: func() {
				fault.Enable(faultStep1Restore, fault.Policy{Times: 1, Skip: 2})
			},
			wantStep:   "step2.restore",
			wantReason: "injected",
		},
		{
			name:    "chunk_restore_error_backup_survives",
			nodes:   3,
			backups: []string{"node2"},
			chunk:   1,
			arm: func() {
				fault.Enable(faultStep1Restore, fault.Policy{Times: 1, Skip: 2})
			},
			minDiscarded: 1,
		},
		{
			name: "chunk_apply_slow_slave",
			// Every chunk apply is delayed: the bounded queues and the
			// transfer budget backpressure the dump, but the migration
			// still completes.
			chunk: 1,
			arm: func() {
				fault.Enable(faultStep1Restore, fault.Policy{Delay: 2 * time.Millisecond, Times: 50})
			},
		},
		{
			name:       "propagation_error",
			arm:        func() { fault.Enable(faultStep3Propagate, fault.Policy{Times: 1}) },
			wantStep:   "step3.propagate",
			wantReason: "injected",
		},
		{
			name: "propagation_conn_drop_storm",
			// Every replayed statement drops the propagation connection:
			// the destination looks dead, the only slave is discarded,
			// and the migration rolls back.
			arm:        func() { fault.Enable(faultStep3Exec, fault.Policy{Drop: true}) },
			wantStep:   "step3.propagate",
			wantReason: "every slave failed",
		},
		{
			name:  "dest_crash_mid_propagation",
			nodes: 3,
			// The manager is parked at the top of its Step-3 wait (the
			// failpoint precedes the first criterion check, so even a
			// caught-up migration stops here) while the destination dies
			// and the propagator finds out; released, the wait must see
			// the failure before it can call the slave caught up.
			arm: func() { fault.Enable(faultStep3Propagate, fault.Policy{Hang: true, Times: 1}) },
			during: func(t *testing.T, rig *testRig, tn *Tenant) {
				defer fault.Release(faultStep3Propagate)
				deadline := time.Now().Add(20 * time.Second)
				failed := func() bool {
					tn.mu.Lock()
					p := tn.prop
					tn.mu.Unlock()
					return p != nil && p.Err() != nil
				}
				for crashed := false; !failed(); time.Sleep(time.Millisecond) {
					if !crashed && fault.SiteFired(faultStep3Propagate) > 0 {
						rig.nodes[1].Close() // hard crash of the destination
						crashed = true
					}
					if time.Now().After(deadline) {
						t.Error("propagator never noticed the crashed destination")
						return
					}
				}
			},
			wantStep:   "step3.propagate",
			wantReason: "every slave failed",
			remigrate:  "node2", // node1 is gone for good
		},
		{
			name:       "switchover_error_no_survivor",
			arm:        func() { fault.Enable(faultStep4Switch, fault.Policy{Times: 1}) },
			wantStep:   "step4.switchover",
			wantReason: "no slave acknowledged promotion",
		},
		{
			name:         "switchover_error_backup_promoted",
			nodes:        3,
			backups:      []string{"node2"},
			arm:          func() { fault.Enable(faultStep4Switch, fault.Policy{Times: 1}) },
			minDiscarded: 1,
		},
		{
			name: "partition_healed_within_retries",
			// The destination is unreachable for the first two dial
			// attempts; the default retry policy (4 attempts) outlasts
			// the partition and the migration succeeds.
			arm: func() { fault.Enable(faultRestoreDial, fault.Policy{Times: 2}) },
		},
		{
			name: "step3_dial_partition_healed",
			// The same two-dial partition hits the propagator's first
			// destination dials: Step 3 dials through the same retry loop
			// as Steps 2 and 4, so the migration succeeds.
			arm: func() { fault.Enable(faultStep3Dial, fault.Policy{Times: 2}) },
		},
		{
			name: "slow_destination",
			arm: func() {
				fault.Enable(faultStep3Exec, fault.Policy{Delay: 2 * time.Millisecond, Times: 200})
			},
		},
		{
			name: "stalled_destination_released",
			arm:  func() { fault.Enable(faultStep3Exec, fault.Policy{Hang: true, Times: 1}) },
			during: func(t *testing.T, rig *testRig, tn *Tenant) {
				deadline := time.Now().Add(20 * time.Second)
				for fault.SiteFired(faultStep3Exec) == 0 {
					if time.Now().After(deadline) {
						t.Error("hang failpoint never fired")
						return
					}
					time.Sleep(time.Millisecond)
				}
				fault.Release(faultStep3Exec)
			},
		},
	}
}

func TestChaosMigration(t *testing.T) {
	for _, tc := range chaosScenarios() {
		t.Run(tc.name, func(t *testing.T) { runChaos(t, tc) })
	}
}

func runChaos(t *testing.T, tc chaosCase) {
	t.Cleanup(fault.Reset)
	nNodes := tc.nodes
	if nNodes == 0 {
		nNodes = 2
	}
	rig := newRig(t, nNodes, engine.Options{})
	rig.provision(t, "a", 120)
	tn, _ := rig.mw.Tenant("a")

	// Customer writers run through every phase of the scenario; loadgen
	// t.Errorf's on any error the source path surfaces, which is the
	// "clients never observe the failure" assertion.
	const writers = 3
	stop := make(chan struct{})
	done := make(chan int, writers)
	for w := 0; w < writers; w++ {
		go loadgen(t, rig, "a", w, 3*time.Millisecond, stop, done)
	}
	time.Sleep(30 * time.Millisecond)
	// However short the migration, Step 3 has syncsets to propagate.
	rig.hook(1, captureDuringRestore(t, tn, writers))

	if tc.arm != nil {
		tc.arm()
	}
	var duringDone chan struct{}
	if tc.during != nil {
		duringDone = make(chan struct{})
		go func() {
			defer close(duringDone)
			tc.during(t, rig, tn)
		}()
	}

	if tc.chunk != 0 {
		rig.mw.dumpChunk = tc.chunk
	}
	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus, Backups: tc.backups})
	rig.mw.dumpChunk = engine.DefaultDumpChunk // the re-migration below runs at the default
	if duringDone != nil {
		<-duringDone
	}
	fault.Reset()

	if tc.wantStep != "" {
		if err == nil {
			t.Fatal("migration succeeded; want an injected failure")
		}
		if rep == nil {
			t.Fatalf("failed migration returned no report (err: %v)", err)
		}
		if !rep.Failed || rep.RollbackStep != tc.wantStep {
			t.Errorf("RollbackStep = %q (failed=%v), want %q", rep.RollbackStep, rep.Failed, tc.wantStep)
		}
		if !strings.Contains(rep.RollbackReason, tc.wantReason) {
			t.Errorf("RollbackReason = %q, want substring %q", rep.RollbackReason, tc.wantReason)
		}
		if node, _ := tn.Node(); node.BackendName() != "node0" {
			t.Errorf("after rollback tenant is on %s, want node0", node.BackendName())
		}
	} else {
		if err != nil {
			t.Fatalf("migration failed despite survivable fault: %v", err)
		}
		if node, _ := tn.Node(); node.BackendName() == "node0" {
			t.Error("migration reported success but tenant is still on the source")
		}
	}
	if len(rep.Discarded) < tc.minDiscarded {
		t.Errorf("Discarded = %v, want at least %d slaves", rep.Discarded, tc.minDiscarded)
	}
	if st := tn.State(); st != StateNormal {
		t.Fatalf("tenant state after migration = %v, want normal", st)
	}

	// Service must have continued: let the writers run a little longer on
	// whatever node the tenant ended up on.
	time.Sleep(30 * time.Millisecond)

	// A rolled-back tenant must be re-migratable with a fresh MTS.
	if tc.wantStep != "" {
		dest := tc.remigrate
		if dest == "" {
			dest = "node1"
		}
		rep2, err := rig.mw.Migrate("a", dest, MigrateOptions{Strategy: Madeus})
		if err != nil {
			t.Fatalf("re-migration after rollback: %v", err)
		}
		if rep2.Failed || rep2.RollbackStep != "" {
			t.Errorf("re-migration report: failed=%v step=%q", rep2.Failed, rep2.RollbackStep)
		}
		if node, _ := tn.Node(); node.BackendName() != dest {
			t.Errorf("after re-migration tenant is on %s, want %s", node.BackendName(), dest)
		}
		if st := tn.State(); st != StateNormal {
			t.Fatalf("tenant state after re-migration = %v, want normal", st)
		}
	}

	close(stop)
	total := 0
	for w := 0; w < writers; w++ {
		total += <-done
	}
	if total == 0 {
		t.Error("no transactions committed during the chaos run")
	}
	// Every commit the writers saw must survive on the final master: 120
	// rows seeded at 100, +1 per committed transfer.
	node, _ := tn.Node()
	if got, want := sumBal(t, node, "a"), 120*100+total; got != want {
		t.Errorf("final balance sum on %s = %d, want %d (lost or duplicated commits)", node.BackendName(), got, want)
	}
}

// TestChaosRetryCountersAdvance pins that a healed partition is visible in
// the observability surface: the dial retries that bridged it are counted.
func TestChaosRetryCountersAdvance(t *testing.T) {
	t.Cleanup(fault.Reset)
	rig := newRig(t, 2, engine.Options{})
	rig.provision(t, "a", 120)

	retries0 := obsMigRetries.Value()
	fault.Enable(faultRestoreDial, fault.Policy{Times: 2})
	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus})
	if err != nil {
		t.Fatalf("migration across healed partition: %v", err)
	}
	if rep.Failed {
		t.Fatalf("report says failed: %v", rep.Err)
	}
	if fired := fault.SiteFired(faultRestoreDial); fired != 2 {
		t.Errorf("dial failpoint fired %d times, want 2", fired)
	}
	if d := obsMigRetries.Value() - retries0; d < 2 {
		t.Errorf("core.migrations.retries advanced by %d, want >= 2", d)
	}
}

// TestConsistencyAcrossInjectedFailure is the paper's correctness claim under
// our failure model: a migration that dies mid-propagation while writers are
// committing must leave the source authoritative, and the eventual successful
// migration must produce a destination byte-identical to it, with the exact
// number of committed updates applied (snapshot isolation: no lost updates,
// no partial syncsets).
func TestConsistencyAcrossInjectedFailure(t *testing.T) {
	t.Cleanup(fault.Reset)
	rig := newRig(t, 2, engine.Options{})
	rig.provision(t, "a", 120)
	tn, _ := rig.mw.Tenant("a")

	const writers = 4
	stop := make(chan struct{})
	done := make(chan int, writers)
	for w := 0; w < writers; w++ {
		go loadgen(t, rig, "a", w, 3*time.Millisecond, stop, done)
	}
	time.Sleep(50 * time.Millisecond)

	// First attempt dies mid-propagation under load and rolls back.
	fault.Enable(faultStep3Propagate, fault.Policy{Times: 1})
	if _, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus}); err == nil {
		t.Fatal("expected the injected fault to abort the first migration")
	}
	fault.Reset()
	if st := tn.State(); st != StateNormal {
		t.Fatalf("tenant state after rollback = %v, want normal", st)
	}

	// Keep writing on the source after the rollback, then quiesce so the
	// retry can be diffed table-for-table against the copy it came from.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	total := 0
	for w := 0; w < writers; w++ {
		total += <-done
	}

	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus, KeepSource: true})
	if err != nil {
		t.Fatalf("retry migration: %v", err)
	}
	if rep.Failed {
		t.Fatalf("retry report says failed: %v", rep.Err)
	}
	assertStateEqual(t, rig.nodes[0], rig.nodes[1], "a")
	if got, want := sumBal(t, rig.nodes[1], "a"), 120*100+total; got != want {
		t.Errorf("final balance sum = %d, want %d (lost or duplicated commits across the failed attempt)", got, want)
	}
}
