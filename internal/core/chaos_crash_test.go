//go:build faultinject

package core

// Full-fleet kill testing: with durable engines (PR 8) the chaos suite can
// finally crash SOURCES, not just destinations. These scenarios kill -9 a
// node mid-migration (the WAL drops its unsynced tail, exactly like a power
// cut), restart it from its data directory, and assert the recovered state
// is the committed prefix, the tenant is re-migratable, and stale partial
// slave state is discarded per the Sec 4.2 rule.
// Run with: go test -tags faultinject -race .

import (
	"fmt"
	"testing"
	"time"

	"madeus/internal/cluster"
	"madeus/internal/engine"
	"madeus/internal/fault"
	"madeus/internal/flow"
	"madeus/internal/testutil"
	"madeus/internal/wire"
)

// newDurableRig is newRig with every node durable: node i keeps its WAL and
// checkpoints under dirs[i], so it can be crashed and restarted.
func newDurableRig(t *testing.T, nNodes int) (*testRig, []string) {
	t.Helper()
	testutil.CheckGoroutines(t)
	mw, err := New(Options{Flow: flow.Config{Deadline: 30 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mw.Close)
	rig := &testRig{mw: mw}
	dirs := make([]string, nNodes)
	for i := 0; i < nNodes; i++ {
		dirs[i] = t.TempDir()
		// DumpBatch 2 keeps dump chunks small, so a single-statement
		// chunk stream is long enough to crash into mid-restore.
		n, err := cluster.NewNode(fmt.Sprintf("node%d", i), cluster.NodeOptions{
			Engine: engine.Options{DataDir: dirs[i], DumpBatch: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		mw.AddNode(n)
		rig.nodes = append(rig.nodes, n)
	}
	return rig, dirs
}

// restartNode boots a fresh node from the crashed node's data dir (real
// recovery: checkpoint load + WAL replay) and swaps it into the middleware,
// rebinding every tenant that lived on it.
func (r *testRig) restartNode(t *testing.T, i int, dir string) *cluster.Node {
	t.Helper()
	n, err := cluster.NewNode(fmt.Sprintf("node%d", i), cluster.NodeOptions{
		Engine: engine.Options{DataDir: dir, DumpBatch: 2},
	})
	if err != nil {
		t.Fatalf("restart node%d from %s: %v", i, dir, err)
	}
	t.Cleanup(n.Close)
	if err := r.mw.ReplaceNode(n); err != nil {
		t.Fatal(err)
	}
	r.nodes[i] = n
	return n
}

// crashWriter is loadgen's crash-tolerant sibling: it hammers the tenant
// with balance transfers and counts ACKNOWLEDGED commits, but treats errors
// as the end of its run instead of failing the test — the node it is talking
// to is going to be killed under it, and surfacing that error to the client
// is expected behaviour, not a bug.
func crashWriter(rig *testRig, tenant string, id int, stop chan struct{}, done chan int) {
	c, err := wire.Dial(rig.mw.Addr(), tenant)
	if err != nil {
		done <- 0
		return
	}
	defer c.Close()
	commits := 0
	for i := 0; ; i++ {
		select {
		case <-stop:
			done <- commits
			return
		default:
		}
		row := (id*131 + i*7) % 120
		if _, err := c.Exec("BEGIN"); err != nil {
			done <- commits
			return
		}
		if _, err := c.Exec(fmt.Sprintf("UPDATE acct SET bal = bal + 1 WHERE id = %d", row)); err != nil {
			c.Exec("ROLLBACK")
			continue // serialization conflict: retry
		}
		res, err := c.Exec("COMMIT")
		if err != nil {
			done <- commits
			return
		}
		if res.Tag == "COMMIT" {
			commits++
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestChaosSourceCrashMidStep3Restart kills the SOURCE during syncset
// propagation while writers are committing, then restarts it from its data
// directory. Whatever way the interrupted migration resolves, the recovered
// source must hold at least every acknowledged commit (and at most the
// attempted ones — an unacknowledged commit may legally have reached the
// WAL), and the restarted node must complete a fresh migration.
func TestChaosSourceCrashMidStep3Restart(t *testing.T) {
	t.Cleanup(fault.Reset)
	rig, dirs := newDurableRig(t, 2)
	rig.provision(t, "a", 120)
	tn, _ := rig.mw.Tenant("a")

	const writers = 3
	stop := make(chan struct{})
	done := make(chan int, writers)
	for w := 0; w < writers; w++ {
		go crashWriter(rig, "a", w, stop, done)
	}
	time.Sleep(30 * time.Millisecond)

	// Kill -9 the source once propagation is running and writers have
	// committed through it: the restore waits for captured syncsets, and
	// the propagator's first dial to the destination pulls the plug.
	capture, crash := captureDuringRestore(t, tn, writers), inStep3(tn, rig.nodes[0].Crash)
	rig.hook(1, func(call int) { capture(call); crash(call) })
	migRep, migErr := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus, KeepSource: true})
	close(stop)
	acked := 0
	for w := 0; w < writers; w++ {
		acked += <-done
	}
	if acked == 0 {
		t.Fatal("no commits were acknowledged before the crash")
	}
	if st := tn.State(); st != StateNormal {
		t.Fatalf("tenant state after interrupted migration = %v, want normal", st)
	}

	// Restart the source from its data dir: recovery must rebuild the
	// committed prefix. The acknowledged commits are the floor (a commit
	// whose fsync completed but whose ack was cut off by the crash may
	// add on top — that is the documented kill -9 contract).
	n0 := rig.restartNode(t, 0, dirs[0])
	if _, ok := n0.Engine.Database("a"); !ok {
		t.Fatal("restarted source lost tenant a")
	}
	srcSum := sumBal(t, n0, "a")
	if seeded := 120 * 100; srcSum < seeded {
		t.Fatalf("recovered source sum = %d, below the seeded %d", srcSum, seeded)
	}
	if migErr == nil {
		// The migration finished on the destination's copy: every
		// acknowledged commit was captured and propagated, so the new
		// master must carry at least seed + acked.
		node, _ := tn.Node()
		if node.BackendName() != "node1" {
			t.Fatalf("successful migration left tenant on %s", node.BackendName())
		}
		if got, min := sumBal(t, node, "a"), 120*100+acked; got < min {
			t.Fatalf("destination sum = %d, want at least %d (lost acked commits)", got, min)
		}
		// Re-migratability of the RESTARTED node: bring the tenant home.
		rep, err := rig.mw.Migrate("a", "node0", MigrateOptions{Strategy: Madeus})
		if err != nil {
			t.Fatalf("migration back onto the restarted source: %v", err)
		}
		if rep.Failed {
			t.Fatalf("migration back onto restarted source failed: %v", rep.Err)
		}
	} else {
		// The migration rolled back: the tenant stays on the (now
		// restarted) source, whose recovered state must hold every
		// acknowledged commit.
		if migRep == nil || !migRep.Failed {
			t.Fatalf("failed migration returned no rollback report (err: %v)", migErr)
		}
		if srcSum < 120*100+acked {
			t.Fatalf("recovered source sum = %d, want at least %d (lost acked commits)", srcSum, 120*100+acked)
		}
		rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus})
		if err != nil {
			t.Fatalf("re-migration from the restarted source: %v", err)
		}
		if rep.Failed {
			t.Fatalf("re-migration failed: %v", rep.Err)
		}
		node, _ := tn.Node()
		if node.BackendName() != "node1" {
			t.Fatalf("after re-migration tenant is on %s, want node1", node.BackendName())
		}
	}
	if st := tn.State(); st != StateNormal {
		t.Fatalf("final tenant state = %v, want normal", st)
	}
}

// TestChaosDestCrashRestartDiscardsPartialSlave kills a DURABLE destination
// mid-restore: the partially-restored slave database survives the crash in
// the destination's WAL (each restore chunk was a committed transaction) and
// is recovered on restart — stale state a fresh migration must throw away.
// The re-migration's createFreshDatabase drops it (Sec 4.2: discard, never
// reuse, partial slave state) and the migration completes with a consistent
// copy.
func TestChaosDestCrashRestartDiscardsPartialSlave(t *testing.T) {
	t.Cleanup(fault.Reset)
	rig, dirs := newDurableRig(t, 2)
	rig.provision(t, "a", 120)
	tn, _ := rig.mw.Tenant("a")

	// One statement per chunk and a per-chunk delay give the restore a
	// long window to crash into, after a handful of chunks have durably
	// committed on the destination.
	fault.Enable(faultStep1Restore, fault.Policy{Delay: 2 * time.Millisecond, Times: 5000, Skip: 8})

	type migResult struct {
		rep *Report
		err error
	}
	migDone := make(chan migResult, 1)
	rig.mw.dumpChunk = 1
	go func() {
		rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus})
		migDone <- migResult{rep, err}
	}()

	deadline := time.Now().Add(20 * time.Second)
	for fault.SiteFired(faultStep1Restore) < 10 {
		if time.Now().After(deadline) {
			t.Fatal("restore never progressed past 10 chunks")
		}
		time.Sleep(time.Millisecond)
	}
	rig.nodes[1].Crash()

	mig := <-migDone
	fault.Reset()
	rig.mw.dumpChunk = engine.DefaultDumpChunk
	if mig.err == nil {
		t.Fatal("migration succeeded despite the destination dying mid-restore")
	}
	if mig.rep == nil || !mig.rep.Failed {
		t.Fatalf("no rollback report (err: %v)", mig.err)
	}
	if st := tn.State(); st != StateNormal {
		t.Fatalf("tenant state after rollback = %v, want normal", st)
	}
	if node, _ := tn.Node(); node.BackendName() != "node0" {
		t.Fatalf("after rollback tenant is on %s, want node0", node.BackendName())
	}

	// Restart the destination: the partial slave copy comes back from its
	// WAL (the rollback's dropDatabase could not reach the dead node).
	n1 := rig.restartNode(t, 1, dirs[1])
	if _, ok := n1.Engine.Database("a"); !ok {
		t.Fatal("expected the partial slave database to survive the crash (restore chunks committed durably)")
	}

	// Re-migrate: the fresh attempt must detect and discard the stale
	// partial copy, then build a consistent one.
	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus, KeepSource: true})
	if err != nil {
		t.Fatalf("re-migration onto the restarted destination: %v", err)
	}
	if rep.Failed {
		t.Fatalf("re-migration failed: %v", rep.Err)
	}
	discarded := false
	for _, ev := range rep.Timeline {
		if ev.Name == "step2.slave.stale_discarded" {
			discarded = true
		}
	}
	if !discarded {
		t.Error("re-migration did not emit step2.slave.stale_discarded for the recovered partial copy")
	}
	if node, _ := tn.Node(); node.BackendName() != "node1" {
		t.Fatalf("after re-migration tenant is on %s, want node1", node.BackendName())
	}
	// Consistency diff: the rebuilt destination matches the kept source.
	src, _ := rig.mw.Node("node0")
	if got, want := sumBal(t, n1, "a"), sumBal(t, src, "a"); got != want {
		t.Fatalf("destination sum = %d, source sum = %d after re-migration", got, want)
	}
}
