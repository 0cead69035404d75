package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"madeus/internal/cluster"
	"madeus/internal/engine"
	"madeus/internal/lsir"
	"madeus/internal/sqlmini"
)

// slaveRig builds a tenant state (no middleware traffic) plus a destination
// node primed with a table, for driving the propagator directly.
func slaveRig(t *testing.T) (*Tenant, *cluster.Node) {
	t.Helper()
	src, err := cluster.NewNode("src", cluster.NodeOptions{Engine: engine.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(src.Close)
	dst, err := cluster.NewNode("dst", cluster.NodeOptions{Engine: engine.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dst.Close)
	if err := dst.Engine.CreateDatabase("a"); err != nil {
		t.Fatal(err)
	}
	c, err := dst.Connect("a")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE kv (k INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		if _, err := c.Exec(fmt.Sprintf("INSERT INTO kv (k, v) VALUES (%d, 0)", k)); err != nil {
			t.Fatal(err)
		}
	}
	tn := NewTenant("a", src, nil)
	tn.startCapture(false)
	return tn, dst
}

// linkSSB fabricates a committed update syncset and links it.
func linkSSB(tn *Tenant, sts, ets uint64, stmts ...string) *SSB {
	b := &SSB{STS: sts, ETS: ets}
	for _, s := range stmts {
		class, _ := sqlmini.ClassifyQuery(s)
		b.Entries = append(b.Entries, Entry{SQL: s, Class: class})
	}
	tn.mu.Lock()
	tn.ssl = append(tn.ssl, b)
	tn.mlc.Store(ets + 1)
	tn.cond.Broadcast()
	tn.mu.Unlock()
	return b
}

func slaveValue(t *testing.T, dst *cluster.Node, k int) int64 {
	t.Helper()
	c, err := dst.Connect("a")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Exec(fmt.Sprintf("SELECT v FROM kv WHERE k = %d", k))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		return -1
	}
	return res.Rows[0][0].Int
}

func TestPropagatorAppliesMadeusSyncsets(t *testing.T) {
	tn, dst := slaveRig(t)
	// Two concurrent txns (same STS) then one after them.
	linkSSB(tn, 0, 0, "SELECT v FROM kv WHERE k = 1", "UPDATE kv SET v = v + 1 WHERE k = 1")
	linkSSB(tn, 0, 1, "SELECT v FROM kv WHERE k = 2", "UPDATE kv SET v = v + 2 WHERE k = 2")
	linkSSB(tn, 2, 2, "SELECT v FROM kv WHERE k = 1", "UPDATE kv SET v = v + 10 WHERE k = 1")

	p := startPropagation(tn, dst, Madeus, 0, nil, nil)
	p.RequestStop()
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := slaveValue(t, dst, 1); got != 11 {
		t.Errorf("k=1 v=%d, want 11", got)
	}
	if got := slaveValue(t, dst, 2); got != 2 {
		t.Errorf("k=2 v=%d, want 2", got)
	}
	st := p.Stats()
	if st.Syncsets != 3 {
		t.Errorf("applied %d, want 3", st.Syncsets)
	}
	// The two ETS-adjacent concurrent commits form one batch.
	if st.MaxGroup < 2 {
		t.Errorf("MaxGroup = %d, want >= 2", st.MaxGroup)
	}
}

// TestPropagatorHoldsCommitsBehindActiveFirstOp checks LSIR rule 1-b at the
// propagator level: a commit whose ETS is at or above an unresolved
// transaction's STS must not reach the slave until that transaction
// resolves.
func TestPropagatorHoldsCommitsBehindActiveFirstOp(t *testing.T) {
	// The decision, without a clock: the propagator's scheduler releases
	// nothing while the bound is <= the ETS, and the group once it lifts.
	sched := lsir.NewScheduler(Madeus.Capabilities(), 0)
	sched.Link(0, 0)
	if wave := sched.Dispatch(nil); len(wave) != 1 || wave[0] != 0 {
		t.Fatalf("dispatched %v, want [0]", wave)
	}
	if first, n := sched.Release(0); n != 0 {
		t.Fatalf("released %d commits from %d past bound 0", n, first)
	}
	if first, n := sched.Release(^uint64(0)); first != 0 || n != 1 {
		t.Fatalf("after the bound lifts released (%d, %d), want (0, 1)", first, n)
	}

	tn, dst := slaveRig(t)

	// An active transaction stamped at STS 0 (first op done, not
	// committed) bounds all commits with ETS >= 0.
	active := &SSB{STS: 0}
	tn.mu.Lock()
	tn.firstOpStampedLocked(active)
	tn.mu.Unlock()

	linkSSB(tn, 0, 0, "SELECT v FROM kv WHERE k = 3", "UPDATE kv SET v = 7 WHERE k = 3")
	p := startPropagation(tn, dst, Madeus, 0, nil, nil)
	defer func() {
		p.Abort()
		p.Wait()
	}()

	if linked, applied, debt := p.snapshot(); linked != 1 || applied != 0 || debt != 0 {
		t.Errorf("snapshot = (%d, %d, %d), want (1, 0, 0): a held-back syncset is lag, not debt", linked, applied, debt)
	}

	// Resolving the active transaction releases the bound.
	tn.mu.Lock()
	tn.resolveSSBLocked(active, false)
	tn.mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for slaveValue(t, dst, 3) != 7 {
		if time.Now().After(deadline) {
			t.Fatal("commit never propagated after bound release")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPropagatorWaitsForFirstOpEligibleMidFlush pins rule 1-b across a
// commit run: once ETS 0 commits, the syncset stamped at STS 1 becomes
// eligible, and its first operation must reach the slave before commit 1
// does. On the master it ran before commit 1, on a snapshot where k=2 was
// still 0, so it leaves k=2 at 5; replayed after commit 1 it would turn
// k=2 into 9.
func TestPropagatorWaitsForFirstOpEligibleMidFlush(t *testing.T) {
	for _, st := range []Strategy{Madeus, BCon} {
		t.Run(st.String(), func(t *testing.T) {
			tn, dst := slaveRig(t)
			linkSSB(tn, 0, 0, "SELECT v FROM kv WHERE k = 1", "UPDATE kv SET v = 1 WHERE k = 1")
			linkSSB(tn, 0, 1, "SELECT v FROM kv WHERE k = 2", "UPDATE kv SET v = 5 WHERE k = 2")
			linkSSB(tn, 1, 2, "UPDATE kv SET v = 9 WHERE v = 5", "UPDATE kv SET v = 3 WHERE k = 3")
			p := startPropagation(tn, dst, st, 0, nil, nil)
			p.RequestStop()
			if err := p.Wait(); err != nil {
				t.Fatal(err)
			}
			for k, want := range map[int]int64{1: 1, 2: 5, 3: 3} {
				if got := slaveValue(t, dst, k); got != want {
					t.Errorf("k=%d v=%d, want %d (the master's)", k, got, want)
				}
			}
		})
	}
}

func TestPropagatorSerialOrder(t *testing.T) {
	tn, dst := slaveRig(t)
	// Serial replay must preserve link order: two increments on one key.
	linkSSB(tn, 0, 0, "SELECT v FROM kv WHERE k = 5", "UPDATE kv SET v = v * 10 + 1 WHERE k = 5")
	linkSSB(tn, 1, 1, "SELECT v FROM kv WHERE k = 5", "UPDATE kv SET v = v * 10 + 2 WHERE k = 5")
	p := startPropagation(tn, dst, BMin, 0, nil, nil)
	p.RequestStop()
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := slaveValue(t, dst, 5); got != 12 {
		t.Errorf("k=5 v=%d, want 12 (ordered replay)", got)
	}
}

func TestPropagatorReplayErrorFailsMigrationPath(t *testing.T) {
	tn, dst := slaveRig(t)
	linkSSB(tn, 0, 0, "SELECT v FROM kv WHERE k = 1", "UPDATE nosuch SET v = 1 WHERE k = 1")
	p := startPropagation(tn, dst, Madeus, 0, nil, nil)
	deadline := time.Now().Add(2 * time.Second)
	for p.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("replay error never surfaced")
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.Abort()
	p.Wait()
}

// TestPropagatorSignalsProgress: the manager's Step-3 wait has no poll, so
// an applied syncset and a propagator failure must each post the progress
// token — for every strategy, and with nobody draining the channel (the
// token coalesces; the propagator never blocks on it).
func TestPropagatorSignalsProgress(t *testing.T) {
	awaitToken := func(t *testing.T, progress chan struct{}, what string) {
		t.Helper()
		select {
		case <-progress:
		case <-time.After(10 * time.Second):
			t.Fatalf("no progress token after %s", what)
		}
	}
	for _, st := range []Strategy{Madeus, BCon, BMin} {
		t.Run(st.String(), func(t *testing.T) {
			tn, dst := slaveRig(t)
			progress := make(chan struct{}, 1)
			for i := uint64(0); i < 3; i++ {
				linkSSB(tn, i, i, "SELECT v FROM kv WHERE k = 1", "UPDATE kv SET v = v + 1 WHERE k = 1")
			}
			p := startPropagation(tn, dst, st, 0, nil, progress)
			p.RequestStop()
			if err := p.Wait(); err != nil {
				t.Fatal(err)
			}
			awaitToken(t, progress, "three applied syncsets")
			if _, applied, _ := p.snapshot(); applied != 3 {
				t.Fatalf("applied = %d, want 3", applied)
			}
		})
	}
	t.Run("failure", func(t *testing.T) {
		tn, dst := slaveRig(t)
		progress := make(chan struct{}, 1)
		p := startPropagation(tn, dst, Madeus, 0, nil, progress)
		dst.Close() // the slave dies under an idle propagator
		linkSSB(tn, 0, 0, "SELECT v FROM kv WHERE k = 1", "UPDATE kv SET v = 1 WHERE k = 1")
		awaitToken(t, progress, "the destination died")
		if p.Err() == nil {
			t.Fatal("token posted but the propagator reports no failure")
		}
		p.Wait() //nolint:errcheck // judged via Err above
	})
}

func TestTenantGateBlocksNewTxns(t *testing.T) {
	tn := NewTenant("x", nil, nil)
	tn.setGate(true)
	started := make(chan struct{})
	go func() {
		tn.txnStarted() // blocks on the gate
		close(started)
	}()
	select {
	case <-started:
		t.Fatal("txnStarted did not block on a closed gate")
	case <-time.After(30 * time.Millisecond):
	}
	tn.setGate(false)
	select {
	case <-started:
	case <-time.After(time.Second):
		t.Fatal("txnStarted never unblocked")
	}
	tn.txnEnded()
}

func TestTenantDrainWaitsForActive(t *testing.T) {
	tn := NewTenant("x", nil, nil)
	tn.txnStarted()
	drained := make(chan struct{})
	go func() {
		tn.setGate(true)
		tn.drainActive()
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("drain finished with an active txn")
	case <-time.After(30 * time.Millisecond):
	}
	tn.txnEnded()
	select {
	case <-drained:
	case <-time.After(time.Second):
		t.Fatal("drain never finished")
	}
	tn.setGate(false)
}

func TestCommitBound(t *testing.T) {
	tn := NewTenant("x", nil, nil)
	tn.mu.Lock()
	if got := tn.commitBoundLocked(); got != ^uint64(0) {
		t.Errorf("empty bound = %d", got)
	}
	a, b := &SSB{STS: 7}, &SSB{STS: 3}
	tn.firstOpStampedLocked(a)
	tn.firstOpStampedLocked(b)
	if got := tn.commitBoundLocked(); got != 3 {
		t.Errorf("bound = %d, want 3", got)
	}
	tn.resolveSSBLocked(b, false)
	if got := tn.commitBoundLocked(); got != 7 {
		t.Errorf("bound = %d, want 7", got)
	}
	tn.mu.Unlock()
}

func TestSSBHelpers(t *testing.T) {
	b := &SSB{Entries: []Entry{
		{SQL: "SELECT 1 FROM t", Class: sqlmini.OpRead},
		{SQL: "UPDATE t SET a = 1", Class: sqlmini.OpWrite},
	}}
	if b.FirstOp().SQL != "SELECT 1 FROM t" {
		t.Error("FirstOp")
	}
	if len(b.Rest()) != 1 || b.Rest()[0].Class != sqlmini.OpWrite {
		t.Error("Rest")
	}
	if b.OpCount() != 3 { // entries + commit
		t.Errorf("OpCount = %d", b.OpCount())
	}
	empty := &SSB{}
	if empty.FirstOp().SQL != "" || empty.Rest() != nil {
		t.Error("empty SSB helpers")
	}
}

// TestPropagatorConcurrentStress floods the propagator with syncsets from a
// generator goroutine while it runs, then verifies completeness.
func TestPropagatorConcurrentStress(t *testing.T) {
	tn, dst := slaveRig(t)
	const n = 300
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			k := i % 10
			linkSSB(tn, uint64(i), uint64(i),
				fmt.Sprintf("SELECT v FROM kv WHERE k = %d", k),
				fmt.Sprintf("UPDATE kv SET v = v + 1 WHERE k = %d", k))
			if i%50 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	p := startPropagation(tn, dst, Madeus, 0, nil, nil)
	wg.Wait()
	p.RequestStop()
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Syncsets != n {
		t.Errorf("applied %d, want %d", st.Syncsets, n)
	}
	total := int64(0)
	for k := 0; k < 10; k++ {
		total += slaveValue(t, dst, k)
	}
	if total != n {
		t.Errorf("sum of increments = %d, want %d", total, n)
	}
}
