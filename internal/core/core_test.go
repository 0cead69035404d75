package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"madeus/internal/cluster"
	"madeus/internal/engine"
	"madeus/internal/testutil"
	"madeus/internal/wal"
	"madeus/internal/wire"
)

// testRig is a middleware in front of two (or more) nodes with one tenant
// provisioned on node0.
type testRig struct {
	mw    *Middleware
	nodes []*cluster.Node
}

func newRig(t *testing.T, nNodes int, engOpts engine.Options) *testRig {
	t.Helper()
	// Registered before the node/middleware cleanups so it runs after them
	// (LIFO) and sees the fully torn-down state.
	testutil.CheckGoroutines(t)
	mw, err := New(Options{CatchupTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mw.Close)
	rig := &testRig{mw: mw}
	for i := 0; i < nNodes; i++ {
		n, err := cluster.NewNode(fmt.Sprintf("node%d", i), cluster.NodeOptions{Engine: engOpts})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		mw.AddNode(n)
		rig.nodes = append(rig.nodes, n)
	}
	return rig
}

// provision creates a tenant on node0 with a small table.
func (r *testRig) provision(t *testing.T, tenant string, rows int) {
	t.Helper()
	if err := r.mw.ProvisionTenant(tenant, "node0"); err != nil {
		t.Fatal(err)
	}
	c := r.connect(t, tenant)
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE acct (id INT PRIMARY KEY, bal INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i += 50 {
		sql := "INSERT INTO acct (id, bal) VALUES "
		for j := i; j < i+50 && j < rows; j++ {
			if j > i {
				sql += ", "
			}
			sql += fmt.Sprintf("(%d, 100)", j)
		}
		if _, err := c.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
}

// startCapture begins capture on a tenant without a migration.
func (t *Tenant) startCapture(all bool) {
	t.mu.Lock()
	t.startCaptureLocked(all)
	t.mu.Unlock()
}

// connect opens a customer connection through the middleware.
func (r *testRig) connect(t *testing.T, tenant string) *wire.Client {
	t.Helper()
	c, err := wire.Dial(r.mw.Addr(), tenant)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// hookedNode wraps a registered node so a test can act on the migration's
// own progress instead of on a wall clock: before runs ahead of every
// Connect the middleware makes to the node, with the 1-based call number.
// A migration that lasts only as long as its work leaves no fixed window
// to sleep into.
type hookedNode struct {
	*cluster.Node
	calls  atomic.Int32
	before func(call int)
}

func (h *hookedNode) Connect(db string) (*wire.Client, error) {
	h.before(int(h.calls.Add(1)))
	return h.Node.Connect(db)
}

// hook re-registers node i behind a hookedNode.
func (r *testRig) hook(i int, before func(call int)) {
	r.mw.AddNode(&hookedNode{Node: r.nodes[i], before: before})
}

// captureDuringRestore is a hookedNode action for a destination: the
// restore's first dial waits until the tenant has committed n more update
// transactions, so at least n syncsets are linked before Step 3 starts
// however short the migration is. Writers must be running.
func captureDuringRestore(t *testing.T, tn *Tenant, n int) func(call int) {
	return func(call int) {
		if call != 1 {
			return
		}
		base := tn.MLC()
		for deadline := time.Now().Add(10 * time.Second); tn.MLC() < base+uint64(n); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Errorf("writers committed %d transactions during the restore in 10s, want %d", tn.MLC()-base, n)
				return
			}
		}
	}
}

// inStep3 is a hookedNode action that runs act once, at the first dial the
// middleware makes to the node after propagation has begun — the
// propagator's first player or, had nothing been captured, the promotion
// probe.
func inStep3(tn *Tenant, act func()) func(call int) {
	var once sync.Once
	return func(int) {
		if phase, _, _ := tn.Progress(); phase == "step3.propagate" || phase == "step4.switchover" {
			once.Do(act)
		}
	}
}

func TestProxyRelaysOperations(t *testing.T) {
	rig := newRig(t, 1, engine.Options{})
	rig.provision(t, "a", 10)
	c := rig.connect(t, "a")
	defer c.Close()

	res, err := c.Exec("SELECT bal FROM acct WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 100 {
		t.Errorf("bal = %v", res.Rows[0][0])
	}
	if _, err := c.Exec("UPDATE acct SET bal = bal + 1 WHERE id = 3"); err != nil {
		t.Fatal(err)
	}
	res, err = c.Exec("SELECT bal FROM acct WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 101 {
		t.Errorf("bal = %v", res.Rows[0][0])
	}
}

func TestProxyRelaysServerErrors(t *testing.T) {
	rig := newRig(t, 1, engine.Options{})
	rig.provision(t, "a", 1)
	c := rig.connect(t, "a")
	defer c.Close()
	_, err := c.Exec("SELECT * FROM missing")
	var se *wire.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("got %v", err)
	}
	// Session still usable.
	if _, err := c.Exec("SELECT COUNT(*) FROM acct"); err != nil {
		t.Fatal(err)
	}
}

func TestProxyUnknownTenant(t *testing.T) {
	rig := newRig(t, 1, engine.Options{})
	if _, err := wire.Dial(rig.mw.Addr(), "ghost"); err == nil {
		t.Error("want error for unknown tenant")
	}
}

// TestAddTenantProbesOutsideLock: AddTenant's probe dial runs with no
// middleware lock held, so a Backend whose Connect reads the middleware, as
// examples/multislave's dying node does, cannot deadlock it. The first dial
// also registers the same tenant, so the re-check under the lock must refuse
// the outer call.
func TestAddTenantProbesOutsideLock(t *testing.T) {
	rig := newRig(t, 1, engine.Options{})
	if err := rig.nodes[0].CreateDatabase("t"); err != nil {
		t.Fatal(err)
	}
	var inner error
	rig.hook(0, func(call int) {
		rig.mw.Tenant("t")
		if call == 1 {
			inner = rig.mw.AddTenant("t", "node0")
		}
	})
	done := make(chan error, 1)
	go func() { done <- rig.mw.AddTenant("t", "node0") }()
	select {
	case err := <-done:
		if inner != nil {
			t.Fatalf("AddTenant from inside the probe: %v", inner)
		}
		if err == nil || !strings.Contains(err.Error(), "already registered") {
			t.Fatalf("AddTenant of a tenant registered during its probe: %v, want already registered", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AddTenant hung: its probe dial ran under the middleware lock")
	}
	if _, ok := rig.mw.Tenant("t"); !ok {
		t.Fatal("tenant t is not registered")
	}
}

func TestMLCAdvancesOnUpdateCommitsOnly(t *testing.T) {
	rig := newRig(t, 1, engine.Options{})
	rig.provision(t, "a", 5)
	tn, _ := rig.mw.Tenant("a")
	base := tn.MLC()

	c := rig.connect(t, "a")
	defer c.Close()

	// Read-only transaction: MLC unchanged.
	mustExecAll(t, c, "BEGIN", "SELECT bal FROM acct WHERE id = 1", "COMMIT")
	if got := tn.MLC(); got != base {
		t.Errorf("MLC after read-only txn = %d, want %d", got, base)
	}
	// Update transaction: MLC +1.
	mustExecAll(t, c, "BEGIN", "SELECT bal FROM acct WHERE id = 1",
		"UPDATE acct SET bal = bal - 1 WHERE id = 1", "COMMIT")
	if got := tn.MLC(); got != base+1 {
		t.Errorf("MLC after update txn = %d, want %d", got, base+1)
	}
	// Rolled-back update: unchanged.
	mustExecAll(t, c, "BEGIN", "SELECT bal FROM acct WHERE id = 1",
		"UPDATE acct SET bal = bal - 1 WHERE id = 1", "ROLLBACK")
	if got := tn.MLC(); got != base+1 {
		t.Errorf("MLC after rollback = %d, want %d", got, base+1)
	}
	// Autocommit write: +1.
	mustExecAll(t, c, "UPDATE acct SET bal = bal + 1 WHERE id = 2")
	if got := tn.MLC(); got != base+2 {
		t.Errorf("MLC after autocommit write = %d, want %d", got, base+2)
	}
}

func mustExecAll(t *testing.T, c *wire.Client, sqls ...string) {
	t.Helper()
	for _, sql := range sqls {
		if _, err := c.Exec(sql); err != nil {
			t.Fatalf("Exec(%q): %v", sql, err)
		}
	}
}

// TestAppendixCExample replays the paper's Appendix-C scenario through the
// real worker path and checks the resulting SSL: T_i and T_j concurrent
// (same STS, consecutive ETS), T_k after both (STS = ETS = MTS+2), and the
// captured syncsets hold [first read, write] with reads of T_k's extra
// queries discarded.
func TestAppendixCExample(t *testing.T) {
	rig := newRig(t, 1, engine.Options{})
	rig.provision(t, "a", 10)
	tn, _ := rig.mw.Tenant("a")

	// Capture without a full migration.
	tn.startCapture(false)
	defer tn.stopCapture()
	base := tn.MLC()

	ci := rig.connect(t, "a")
	defer ci.Close()
	cj := rig.connect(t, "a")
	defer cj.Close()
	ck := rig.connect(t, "a")
	defer ck.Close()

	// T_i and T_j interleaved (concurrent).
	mustExecAll(t, ci, "BEGIN", "SELECT bal FROM acct WHERE id = 1")
	mustExecAll(t, cj, "BEGIN", "SELECT bal FROM acct WHERE id = 2")
	mustExecAll(t, ci, "UPDATE acct SET bal = bal + 1 WHERE id = 1")
	mustExecAll(t, cj, "UPDATE acct SET bal = bal + 1 WHERE id = 2")
	mustExecAll(t, ci, "COMMIT")
	mustExecAll(t, cj, "COMMIT")
	// T_k strictly after.
	mustExecAll(t, ck, "BEGIN",
		"SELECT bal FROM acct WHERE id = 1",
		"SELECT bal FROM acct WHERE id = 2", // non-first read: discarded
		"UPDATE acct SET bal = bal + 1 WHERE id = 1",
		"COMMIT")

	tn.mu.Lock()
	ssl := append([]*SSB{}, tn.ssl...)
	tn.mu.Unlock()
	if len(ssl) != 3 {
		t.Fatalf("SSL has %d SSBs, want 3", len(ssl))
	}
	ti, tj, tk := ssl[0], ssl[1], ssl[2]
	if ti.STS != base || ti.ETS != base {
		t.Errorf("T_i STS/ETS = %d/%d, want %d/%d", ti.STS, ti.ETS, base, base)
	}
	if tj.STS != base || tj.ETS != base+1 {
		t.Errorf("T_j STS/ETS = %d/%d, want %d/%d", tj.STS, tj.ETS, base, base+1)
	}
	if tk.STS != base+2 || tk.ETS != base+2 {
		t.Errorf("T_k STS/ETS = %d/%d, want %d/%d", tk.STS, tk.ETS, base+2, base+2)
	}
	// T_k's syncset: first read + one write only (second read discarded).
	if len(tk.Entries) != 2 {
		t.Fatalf("T_k entries = %d, want 2: %+v", len(tk.Entries), tk.Entries)
	}
	if tk.Entries[0].SQL != "SELECT bal FROM acct WHERE id = 1" {
		t.Errorf("T_k first entry = %q", tk.Entries[0].SQL)
	}
	if got := tn.MLC(); got != base+3 {
		t.Errorf("MLC = %d, want %d", got, base+3)
	}
}

func TestReadOnlyAndAbortedTxnsNotLinked(t *testing.T) {
	rig := newRig(t, 1, engine.Options{})
	rig.provision(t, "a", 5)
	tn, _ := rig.mw.Tenant("a")
	tn.startCapture(false)
	defer tn.stopCapture()

	c := rig.connect(t, "a")
	defer c.Close()
	mustExecAll(t, c, "BEGIN", "SELECT bal FROM acct WHERE id = 1", "COMMIT")
	mustExecAll(t, c, "BEGIN", "SELECT bal FROM acct WHERE id = 1",
		"UPDATE acct SET bal = 0 WHERE id = 1", "ROLLBACK")
	if n := tn.SSLLen(); n != 0 {
		t.Errorf("SSL = %d SSBs, want 0", n)
	}
	// B-ALL capture links read-only transactions too.
	tn.stopCapture()
	tn.startCapture(true)
	mustExecAll(t, c, "BEGIN", "SELECT bal FROM acct WHERE id = 1", "COMMIT")
	if n := tn.SSLLen(); n != 1 {
		t.Errorf("B-ALL SSL = %d SSBs, want 1", n)
	}
}

func TestFailedTxnCommitNotLinked(t *testing.T) {
	rig := newRig(t, 1, engine.Options{})
	rig.provision(t, "a", 5)
	tn, _ := rig.mw.Tenant("a")
	tn.startCapture(false)
	defer tn.stopCapture()

	c := rig.connect(t, "a")
	defer c.Close()
	mustExecAll(t, c, "BEGIN", "SELECT bal FROM acct WHERE id = 1",
		"UPDATE acct SET bal = 0 WHERE id = 1")
	if _, err := c.Exec("SELECT * FROM missing"); err == nil {
		t.Fatal("want error")
	}
	// COMMIT of a poisoned txn acts as ROLLBACK; nothing links, MLC holds.
	base := tn.MLC()
	if _, err := c.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if n := tn.SSLLen(); n != 0 {
		t.Errorf("SSL = %d, want 0", n)
	}
	if got := tn.MLC(); got != base {
		t.Errorf("MLC moved on poisoned commit: %d -> %d", base, got)
	}
}

// nodeDump dumps a tenant database directly from a node.
func nodeDump(t *testing.T, n Backend, db string) []string {
	t.Helper()
	c, err := n.Connect(db)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Exec("DUMP")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, r[0].Str)
	}
	return out
}

func assertStateEqual(t *testing.T, a, b Backend, db string) {
	t.Helper()
	da := nodeDump(t, a, db)
	db2 := nodeDump(t, b, db)
	if len(da) != len(db2) {
		t.Fatalf("dump lengths differ: %s=%d %s=%d", a.BackendName(), len(da), b.BackendName(), len(db2))
	}
	for i := range da {
		if da[i] != db2[i] {
			t.Fatalf("dump line %d differs:\n  %s: %s\n  %s: %s", i, a.BackendName(), da[i], b.BackendName(), db2[i])
		}
	}
}

func TestMigrateIdleTenantAllStrategies(t *testing.T) {
	for _, st := range Strategies() {
		t.Run(st.String(), func(t *testing.T) {
			rig := newRig(t, 2, engine.Options{})
			rig.provision(t, "a", 120)
			rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: st, KeepSource: true})
			if err != nil {
				t.Fatalf("migrate: %v (%s)", err, rep)
			}
			if rep.Failed {
				t.Fatalf("report failed: %s", rep)
			}
			assertStateEqual(t, rig.nodes[0], rig.nodes[1], "a")

			// Routing follows the tenant.
			tn, _ := rig.mw.Tenant("a")
			node, _ := tn.Node()
			if node.BackendName() != "node1" {
				t.Errorf("tenant on %s, want node1", node.BackendName())
			}
			c := rig.connect(t, "a")
			defer c.Close()
			res, err := c.Exec("SELECT COUNT(*) FROM acct")
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows[0][0].Int != 120 {
				t.Errorf("count after migration = %v", res.Rows[0][0])
			}
		})
	}
}

// loadgen runs a closed-loop writer with think time against the tenant
// until stop is closed; it reports the number of committed transactions.
// The think time matters: the paper's EBs pace themselves, and a baseline
// like B-ALL genuinely cannot catch up with an unthrottled closed loop.
func loadgen(t *testing.T, rig *testRig, tenant string, id int, think time.Duration, stop chan struct{}, done chan int) {
	loadgenN(t, rig, tenant, id, think, 0, stop, done)
}

// loadgenN is loadgen bounded to limit transaction attempts (0 = until
// stop): tests that assert a propagation mechanism rather than a rate use
// it so that catch-up is certain once the writers run dry, however slow
// the slave is on this host.
func loadgenN(t *testing.T, rig *testRig, tenant string, id int, think time.Duration, limit int, stop chan struct{}, done chan int) {
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	c, err := wire.Dial(rig.mw.Addr(), tenant)
	if err != nil {
		if !stopped() {
			t.Error(err)
		}
		done <- 0
		return
	}
	defer c.Close()
	commits := 0
	i := 0
	for !stopped() && (limit == 0 || i < limit) {
		i++
		row := (id*131 + i*7) % 120
		if _, err := c.Exec("BEGIN"); err != nil {
			if !stopped() {
				t.Errorf("writer %d BEGIN: %v", id, err)
			}
			break
		}
		ops := []string{
			fmt.Sprintf("SELECT bal FROM acct WHERE id = %d", row),
			fmt.Sprintf("UPDATE acct SET bal = bal + 1 WHERE id = %d", row),
		}
		failed := false
		for _, op := range ops {
			if _, err := c.Exec(op); err != nil {
				// Serialization conflicts are expected; roll back.
				c.Exec("ROLLBACK")
				failed = true
				break
			}
		}
		if failed {
			continue
		}
		res, err := c.Exec("COMMIT")
		if err != nil {
			if !stopped() {
				t.Errorf("writer %d COMMIT: %v", id, err)
			}
			break
		}
		if res.Tag == "COMMIT" {
			commits++
		}
		if think > 0 {
			time.Sleep(think)
		}
	}
	done <- commits
}

// startWriters launches n loadgenN writers against tenant and returns the
// function that stops them, waits for every one to exit, and reports their
// total commits. The same function is registered with t.Cleanup before the
// caller can fail: a writer that outlives its test calls t.Errorf on a
// finished test, which panics the whole package binary. It returns once
// each writer has committed, so the load is under way, not merely started.
func startWriters(t *testing.T, rig *testRig, tenant string, n int, think time.Duration, limit int) (stopAndCount func() int) {
	t.Helper()
	tn, ok := rig.mw.Tenant(tenant)
	if !ok {
		t.Fatalf("no tenant %q", tenant)
	}
	base := tn.MLC()
	stop := make(chan struct{})
	done := make(chan int, n)
	for w := 0; w < n; w++ {
		go loadgenN(t, rig, tenant, w, think, limit, stop, done)
	}
	var once sync.Once
	total := 0
	stopAndCount = func() int {
		once.Do(func() {
			close(stop)
			for w := 0; w < n; w++ {
				total += <-done
			}
		})
		return total
	}
	t.Cleanup(func() { stopAndCount() })
	for deadline := time.Now().Add(10 * time.Second); tn.MLC() < base+uint64(n); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("writers committed %d transactions in 10s, want %d", tn.MLC()-base, n)
		}
	}
	return stopAndCount
}

func TestMigrateUnderLoadAllStrategiesConsistent(t *testing.T) {
	for _, st := range Strategies() {
		t.Run(st.String(), func(t *testing.T) {
			rig := newRig(t, 2, engine.Options{
				WAL: wal.Options{SyncDelay: 100 * time.Microsecond, Mode: wal.GroupCommit},
			})
			rig.provision(t, "a", 120)

			// Bounded work: B-CON's modelled commit convoy may fall behind a
			// free-running master on a small host, and still has to
			// converge. The restore waits for a few commits, so syncsets
			// are captured however quickly the migration itself runs.
			stopWriters := startWriters(t, rig, "a", 4, 10*time.Millisecond, 150)
			tn, _ := rig.mw.Tenant("a")
			rig.hook(1, captureDuringRestore(t, tn, 8))

			rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: st, KeepSource: true})
			if err != nil {
				t.Fatalf("migrate: %v", err)
			}

			// Writers keep going against the new master, proving
			// switch-over; then stop and verify.
			time.Sleep(50 * time.Millisecond)
			total := stopWriters()
			if total == 0 {
				t.Fatal("no transactions committed during the test")
			}
			if rep.Propagation.Syncsets == 0 {
				t.Error("no syncsets propagated despite concurrent load")
			}

			// The source copy froze at switch-over; replaying the sum
			// invariant: source balances + post-switch commits on dest.
			src, _ := rig.mw.Node("node0")
			dst, _ := rig.mw.Node("node1")
			srcSum := sumBal(t, src, "a")
			dstSum := sumBal(t, dst, "a")
			if dstSum < srcSum {
				t.Errorf("dest sum %d < source sum %d (lost updates)", dstSum, srcSum)
			}
			// Every committed increment must be present: initial 120*100
			// plus one per commit.
			if want := 120*100 + total; dstSum != want {
				t.Errorf("dest sum = %d, want %d (commits=%d)", dstSum, want, total)
			}
		})
	}
}

func sumBal(t *testing.T, n Backend, db string) int {
	t.Helper()
	c, err := n.Connect(db)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Exec("SELECT SUM(bal) FROM acct")
	if err != nil {
		t.Fatal(err)
	}
	return int(res.Rows[0][0].Int)
}

func TestMadeusGroupCommitDuringMigration(t *testing.T) {
	rig := newRig(t, 2, engine.Options{
		WAL: wal.Options{SyncDelay: time.Millisecond, Mode: wal.GroupCommit},
	})
	rig.provision(t, "a", 120)

	// A fixed amount of work per writer, long enough to span Step 3: the
	// group size is a property of the propagation mechanism, not of how
	// fast this host's slave runs against a free-running master.
	const writers = 8
	stopWriters := startWriters(t, rig, "a", writers, time.Millisecond, 150)
	tn, _ := rig.mw.Tenant("a")
	rig.hook(1, captureDuringRestore(t, tn, 4*writers))
	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus})
	stopWriters()
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if rep.Propagation.MaxGroup < 2 {
		t.Errorf("MaxGroup = %d, want >= 2 (no group commit happened under %d writers)",
			rep.Propagation.MaxGroup, writers)
	}
}

func TestBConNeverGroupsCommits(t *testing.T) {
	rig := newRig(t, 2, engine.Options{
		WAL: wal.Options{SyncDelay: 200 * time.Microsecond, Mode: wal.GroupCommit},
	})
	rig.provision(t, "a", 120)
	// Bounded work (see TestMadeusGroupCommitDuringMigration): B-CON's
	// serial commits may lag the master on a small host, and must still
	// converge once the writers run dry.
	stopWriters := startWriters(t, rig, "a", 6, 2*time.Millisecond, 150)
	tn, _ := rig.mw.Tenant("a")
	rig.hook(1, captureDuringRestore(t, tn, 12))
	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: BCon})
	stopWriters()
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if len(rep.Propagation.CommitGroups) == 0 {
		t.Fatal("no commit propagated during the migration; the assertion below would be vacuous")
	}
	for _, g := range rep.Propagation.CommitGroups {
		if g != 1 {
			t.Fatalf("B-CON propagated a commit group of %d", g)
		}
	}
}

func TestMigrateErrors(t *testing.T) {
	rig := newRig(t, 2, engine.Options{})
	rig.provision(t, "a", 10)
	if _, err := rig.mw.Migrate("ghost", "node1", MigrateOptions{}); err == nil {
		t.Error("unknown tenant: want error")
	}
	if _, err := rig.mw.Migrate("a", "ghost", MigrateOptions{}); err == nil {
		t.Error("unknown node: want error")
	}
	if _, err := rig.mw.Migrate("a", "node0", MigrateOptions{}); err == nil {
		t.Error("same node: want error")
	}
}

func TestCatchupTimeoutAbortsAndServiceContinues(t *testing.T) {
	// A fast source in front of a destination whose every commit pays an
	// exclusive 4 ms fsync: the serial B-ALL replay is strictly slower than
	// the master's arrival rate, so the slave genuinely cannot catch up and
	// only the catch-up timer can end Step 3.
	rig := newFlowRig(t, Options{CatchupTimeout: 300 * time.Millisecond}, engine.Options{}, slowDest())
	rig.mw.catchupDebt = 1
	rig.provision(t, "a", 120)

	const writers = 4
	stop := make(chan struct{})
	done := make(chan int, writers)
	for w := 0; w < writers; w++ {
		// No think time: an unthrottled closed loop that B-ALL cannot
		// catch up with, forcing the N/A path quickly.
		go loadgen(t, rig, "a", w, 0, stop, done)
	}
	time.Sleep(50 * time.Millisecond)
	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: BAll})
	if !errors.Is(err, ErrCatchupTimeout) {
		t.Fatalf("got %v, want ErrCatchupTimeout", err)
	}
	if !rep.Failed {
		t.Error("report not marked failed")
	}
	// Service continues on the source.
	tn, _ := rig.mw.Tenant("a")
	node, _ := tn.Node()
	if node.BackendName() != "node0" {
		t.Errorf("tenant moved to %s on failed migration", node.BackendName())
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	total := 0
	for w := 0; w < writers; w++ {
		total += <-done
	}
	if total == 0 {
		t.Error("no commits; service did not continue after failed migration")
	}
	// The partial slave was discarded.
	if _, ok := rig.nodes[1].Engine.Database("a"); ok {
		t.Error("partial slave left on destination")
	}
}

// TestConcurrentMigratesOneRuns starts eight Migrates of one tenant behind
// a barrier. The claim is one check-and-set, so exactly one runs and the
// other seven are refused as already migrating. The winner's restore waits
// until all seven were refused, so every attempt overlaps the one that
// runs.
func TestConcurrentMigratesOneRuns(t *testing.T) {
	rig := newRig(t, 2, engine.Options{})
	rig.provision(t, "a", 50)
	tn, _ := rig.mw.Tenant("a")

	const callers = 8
	var refusals atomic.Int32
	allRefused := make(chan struct{})
	rig.hook(1, func(call int) {
		if call != 1 {
			return
		}
		select {
		case <-allRefused:
		case <-time.After(10 * time.Second):
			t.Errorf("only %d of %d concurrent Migrates were refused", refusals.Load(), callers-1)
		}
	})

	type result struct {
		rep *Report
		err error
	}
	barrier := make(chan struct{})
	results := make(chan result, callers)
	for i := 0; i < callers; i++ {
		go func() {
			<-barrier
			rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus})
			if err != nil && strings.Contains(err.Error(), "already migrating") && refusals.Add(1) == callers-1 {
				close(allRefused)
			}
			results <- result{rep, err}
		}()
	}
	close(barrier)
	ran, refused := 0, 0
	for i := 0; i < callers; i++ {
		r := <-results
		switch {
		case r.err == nil:
			ran++
		case strings.Contains(r.err.Error(), "already migrating"):
			refused++
			if r.rep != nil {
				t.Errorf("a refused Migrate returned a report: %v", r.rep)
			}
		default:
			t.Errorf("Migrate: %v", r.err)
		}
	}
	if ran != 1 || refused != callers-1 {
		t.Fatalf("%d Migrates ran and %d were refused, want 1 and %d", ran, refused, callers-1)
	}
	if node, _ := tn.Node(); node.BackendName() != "node1" {
		t.Fatalf("tenant is on %s, want node1", node.BackendName())
	}
	_, onSource := rig.nodes[0].Engine.Database("a")
	_, onDest := rig.nodes[1].Engine.Database("a")
	if onSource || !onDest {
		t.Fatalf("tenant database on node0=%v node1=%v, want node1 only", onSource, onDest)
	}
	dst, _ := rig.mw.Node("node1")
	if got := sumBal(t, dst, "a"); got != 50*100 {
		t.Fatalf("destination sum = %d, want %d", got, 50*100)
	}
	if st := tn.State(); st != StateNormal {
		t.Fatalf("tenant state = %v, want normal", st)
	}
}

func TestSecondMigrationAfterFirst(t *testing.T) {
	rig := newRig(t, 3, engine.Options{})
	rig.provision(t, "a", 30)
	if _, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus}); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.mw.Migrate("a", "node2", MigrateOptions{Strategy: Madeus}); err != nil {
		t.Fatal(err)
	}
	tn, _ := rig.mw.Tenant("a")
	node, _ := tn.Node()
	if node.BackendName() != "node2" {
		t.Errorf("tenant on %s, want node2", node.BackendName())
	}
	c := rig.connect(t, "a")
	defer c.Close()
	res, err := c.Exec("SELECT COUNT(*) FROM acct")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 30 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

// TestMigrateSignedExtremes: a tenant holding the least INT, -1 and a
// negative FLOAT in exponent form migrates, and the slave ends in the
// source's state. Its dump writes the least INT as the one literal
// -9223372036854775808, which the restore once read as the negation of an
// out-of-range number, rolling the migration back at Step 2.
func TestMigrateSignedExtremes(t *testing.T) {
	rig := newRig(t, 2, engine.Options{})
	if err := rig.mw.ProvisionTenant("a", "node0"); err != nil {
		t.Fatal(err)
	}
	c := rig.connect(t, "a")
	mustExecAll(t, c,
		"CREATE TABLE m (id INT PRIMARY KEY, n INT, x FLOAT)",
		"INSERT INTO m (id, n, x) VALUES (1, -9223372036854775807 - 1, -2.5e-07), (2, -1, -0.00000025)",
		"UPDATE m SET n = n - 1 WHERE id = 2",
	)
	c.Close()
	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus, KeepSource: true})
	if err != nil || rep.Failed {
		t.Fatalf("migrate: %v (%s)", err, rep)
	}
	assertStateEqual(t, rig.nodes[0], rig.nodes[1], "a")

	c = rig.connect(t, "a")
	defer c.Close()
	res, err := c.Exec("SELECT n FROM m WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0]; got.Int != math.MinInt64 {
		t.Errorf("n = %v after migration, want %d", got, int64(math.MinInt64))
	}
}

func TestOtherTenantUnaffectedByMigration(t *testing.T) {
	rig := newRig(t, 2, engine.Options{})
	rig.provision(t, "a", 30)
	if err := rig.mw.ProvisionTenant("b", "node0"); err != nil {
		t.Fatal(err)
	}
	cb := rig.connect(t, "b")
	defer cb.Close()
	mustExecAll(t, cb, "CREATE TABLE t (id INT PRIMARY KEY)", "INSERT INTO t (id) VALUES (1)")

	stop := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		defer close(errs)
		c := rig.connect(t, "b")
		defer c.Close()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Exec("SELECT COUNT(*) FROM t"); err != nil {
				errs <- err
				return
			}
		}
	}()
	if _, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if err := <-errs; err != nil {
		t.Errorf("tenant b disturbed: %v", err)
	}
	// b still lives on node0.
	tnB, _ := rig.mw.Tenant("b")
	node, _ := tnB.Node()
	if node.BackendName() != "node0" {
		t.Errorf("tenant b moved to %s", node.BackendName())
	}
}

func TestTable2CapabilityMatrix(t *testing.T) {
	want := map[Strategy]Capabilities{
		BAll:   {},
		BMin:   {Min: true},
		BCon:   {Min: true, ConFW: true},
		Madeus: {Min: true, ConFW: true, ConCom: true},
	}
	for st, caps := range want {
		if got := st.Capabilities(); got != caps {
			t.Errorf("%s capabilities = %+v, want %+v", st, got, caps)
		}
	}
	if len(Strategies()) != 4 {
		t.Error("Strategies() should list all four")
	}
}
