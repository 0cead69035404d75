package core

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"madeus/internal/cluster"
	"madeus/internal/engine"
	"madeus/internal/wal"
	"madeus/internal/wire"
)

// commitTogether runs BEGIN and an UPDATE of its own row on every
// connection, then releases all their COMMITs at once and returns how many
// WAL fsyncs the node performed meanwhile.
func commitTogether(t *testing.T, node *cluster.Node, conns []*wire.Client) uint64 {
	t.Helper()
	for i, c := range conns {
		mustExecAll(t, c, "BEGIN", fmt.Sprintf("UPDATE acct SET bal = bal + 1 WHERE id = %d", i))
	}
	before := node.Engine.WALStats().Fsyncs
	release := make(chan struct{})
	errs := make(chan error, len(conns))
	for _, c := range conns {
		go func(c *wire.Client) {
			<-release
			_, err := c.Exec("COMMIT")
			errs <- err
		}(c)
	}
	close(release)
	for range conns {
		if err := <-errs; err != nil {
			t.Fatalf("COMMIT: %v", err)
		}
	}
	return node.Engine.WALStats().Fsyncs - before
}

// TestCommitsGroupOutsideCapture: outside the capture window an update
// COMMIT relays without Algorithm 1's critical region, so COMMITs released
// together share the master's group commit. Inside the window each still
// crosses the region alone, one fsync apiece. Counts fsyncs; reads no clock.
func TestCommitsGroupOutsideCapture(t *testing.T) {
	const n = 8
	rig := newRig(t, 1, engine.Options{
		WAL: wal.Options{SyncDelay: 20 * time.Millisecond, Mode: wal.GroupCommit},
	})
	rig.provision(t, "a", n)
	tn, _ := rig.mw.Tenant("a")
	conns := make([]*wire.Client, n)
	for i := range conns {
		conns[i] = rig.connect(t, "a")
		defer conns[i].Close()
	}

	if got := commitTogether(t, rig.nodes[0], conns); got >= n {
		t.Errorf("outside capture: %d COMMITs released together took %d fsyncs, want < %d", n, got, n)
	}
	tn.startCapture(false)
	defer tn.stopCapture()
	if got := commitTogether(t, rig.nodes[0], conns); got != n {
		t.Errorf("inside capture: %d COMMITs released together took %d fsyncs, want %d", n, got, n)
	}
}

// TestCaptureRollbackStraddle: a rollback stops capture without a drain, so
// a transaction that took its SSB inside the window commits beside one that
// began after the window closed, the first through the critical region and
// the second without it. Both advance the MLC, neither links, and nothing
// stays tracked.
func TestCaptureRollbackStraddle(t *testing.T) {
	rig := newRig(t, 1, engine.Options{})
	rig.provision(t, "a", 2)
	tn, _ := rig.mw.Tenant("a")
	a := rig.connect(t, "a")
	defer a.Close()
	b := rig.connect(t, "a")
	defer b.Close()
	activeFirst := func() int {
		tn.mu.Lock()
		defer tn.mu.Unlock()
		return len(tn.activeFirst)
	}
	base := tn.MLC()

	tn.startCapture(false)
	mustExecAll(t, a, "BEGIN", "UPDATE acct SET bal = 7 WHERE id = 0")
	if n := activeFirst(); n != 1 {
		t.Fatalf("inside capture: %d active first operations, want 1", n)
	}
	tn.stopCapture()
	mustExecAll(t, b, "BEGIN", "UPDATE acct SET bal = 7 WHERE id = 1")

	errs := make(chan error, 2)
	for _, c := range []*wire.Client{a, b} {
		go func(c *wire.Client) {
			_, err := c.Exec("COMMIT")
			errs <- err
		}(c)
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatalf("COMMIT: %v", err)
		}
	}
	if got := tn.MLC(); got != base+2 {
		t.Errorf("MLC = %d, want %d", got, base+2)
	}
	if n := tn.SSLLen(); n != 0 {
		t.Errorf("SSL holds %d syncsets after the rollback, want 0", n)
	}
	if n := activeFirst(); n != 0 {
		t.Errorf("%d active first operations after both commits, want 0", n)
	}
	res, err := a.Exec("SELECT SUM(bal) FROM acct")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int; got != 14 {
		t.Errorf("SUM(bal) = %d, want 14: a commit was lost", got)
	}
}

// TestMigrateUnderRandomLoadSlaveEqual: 8 sessions run a fixed count of
// seeded, random-length transactions, autocommit writes and autocommit
// reads, over keys every session updates and keys only one does. A
// migration starts a quarter of the way in, so some transactions commit
// lock-free before the snapshot and the rest inside the capture window;
// its restore waits for the load to finish, so the slave it promotes must
// then equal the source. Serialization failures are retried; any other
// client error fails the test.
func TestMigrateUnderRandomLoadSlaveEqual(t *testing.T) {
	const (
		sessions = 8
		txns     = 150 // per session
		shared   = 8   // keys 0..7 every session updates; session s owns 100+s
	)
	for _, st := range []Strategy{Madeus, BAll} {
		t.Run(st.String(), func(t *testing.T) {
			rig := newRig(t, 2, engine.Options{})
			if err := rig.mw.ProvisionTenant("a", "node0"); err != nil {
				t.Fatal(err)
			}
			c := rig.connect(t, "a")
			mustExecAll(t, c, "CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
			for k := 0; k < shared; k++ {
				mustExecAll(t, c, fmt.Sprintf("INSERT INTO kv (k, v) VALUES (%d, 0)", k))
			}
			for s := 0; s < sessions; s++ {
				mustExecAll(t, c, fmt.Sprintf("INSERT INTO kv (k, v) VALUES (%d, 0)", 100+s))
			}
			c.Close()

			var done atomic.Int64 // transactions finished, all sessions
			quarter := make(chan struct{})
			var quarterOnce sync.Once
			var increments atomic.Int64 // acknowledged v = v + 1 updates
			loadDone := make(chan struct{})
			var wg sync.WaitGroup
			for s := 0; s < sessions; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					increments.Add(runRandomSession(t, rig, s, txns, shared, func() {
						if done.Add(1) == sessions*txns/4 {
							quarterOnce.Do(func() { close(quarter) })
						}
					}))
				}(s)
			}
			go func() { wg.Wait(); close(loadDone) }()
			rig.hook(1, func(call int) { // the restore's first dial
				if call == 1 {
					<-loadDone
				}
			})

			select { // a session that failed early ends the load before a quarter
			case <-quarter:
			case <-loadDone:
			}
			rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: st, KeepSource: true})
			<-loadDone
			if err != nil {
				t.Fatalf("migrate: %v", err)
			}
			if t.Failed() {
				return
			}
			if rep.Propagation.Syncsets == 0 {
				t.Error("no syncsets propagated: the migration did not overlap the load")
			}
			assertStateEqual(t, rig.nodes[0], rig.nodes[1], "a")
			if got, want := sumKV(t, rig.nodes[1]), increments.Load(); got != want {
				t.Errorf("destination SUM(v) = %d, want %d acknowledged increments", got, want)
			}
		})
	}
}

// runRandomSession runs one session's share of the random load and returns
// the increments its acknowledged commits applied. Every transaction opens
// with a read, so a first operation never waits on a row lock, and writes
// its keys in ascending order, so no two transactions deadlock; autocommit
// writes touch only the session's own key.
func runRandomSession(t *testing.T, rig *testRig, s, txns, shared int, finished func()) int64 {
	c, err := wire.Dial(rig.mw.Addr(), "a")
	if err != nil {
		t.Error(err)
		return 0
	}
	defer c.Close()
	rng := rand.New(rand.NewPCG(uint64(s), 47))
	own := 100 + s
	key := func() int {
		if rng.IntN(3) == 0 {
			return own
		}
		return rng.IntN(shared)
	}
	var increments int64
	for i := 0; i < txns; i++ {
		switch rng.IntN(4) {
		case 0: // autocommit read, then an autocommit write of the own key
			if _, err := c.Exec(fmt.Sprintf("SELECT v FROM kv WHERE k = %d", key())); err != nil {
				t.Errorf("session %d autocommit read: %v", s, err)
				return increments
			}
			if _, err := c.Exec(fmt.Sprintf("UPDATE kv SET v = v + 1 WHERE k = %d", own)); err != nil {
				t.Errorf("session %d autocommit write: %v", s, err)
				return increments
			}
			increments++
		default:
			reads := make([]int, rng.IntN(3))
			for j := range reads {
				reads[j] = key()
			}
			writes := make([]int, rng.IntN(4))
			for j := range writes {
				writes[j] = key()
			}
			sort.Ints(writes)
			for {
				n, err := randomTxn(c, key(), reads, writes)
				if err == nil {
					increments += n
					break
				}
				if !strings.Contains(err.Error(), "could not serialize") {
					t.Errorf("session %d transaction: %v", s, err)
					return increments
				}
				if _, err := c.Exec("ROLLBACK"); err != nil {
					t.Errorf("session %d ROLLBACK: %v", s, err)
					return increments
				}
			}
		}
		finished()
	}
	return increments
}

// randomTxn runs one transaction: BEGIN, a first read of key first, reads
// of the keys in reads, increments of the keys in writes, and COMMIT. It
// returns the increments committed.
func randomTxn(c *wire.Client, first int, reads, writes []int) (int64, error) {
	stmts := []string{"BEGIN", fmt.Sprintf("SELECT v FROM kv WHERE k = %d", first)}
	for _, k := range reads {
		stmts = append(stmts, fmt.Sprintf("SELECT v FROM kv WHERE k = %d", k))
	}
	for _, k := range writes {
		stmts = append(stmts, fmt.Sprintf("UPDATE kv SET v = v + 1 WHERE k = %d", k))
	}
	for _, sql := range stmts {
		if _, err := c.Exec(sql); err != nil {
			return 0, err
		}
	}
	res, err := c.Exec("COMMIT")
	if err != nil {
		return 0, err
	}
	if res.Tag != "COMMIT" {
		return 0, fmt.Errorf("COMMIT answered %s", res.Tag)
	}
	return int64(len(writes)), nil
}

func sumKV(t *testing.T, n Backend) int64 {
	t.Helper()
	c, err := n.Connect("a")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Exec("SELECT SUM(v) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].Int
}

// BenchmarkWorkerTxn times one update transaction through the middleware
// (BEGIN, a first read, an UPDATE, COMMIT). Outside the capture window its
// first read and COMMIT relay without Algorithm 1's critical region;
// capturing, both cross the region and the transaction's syncset is linked.
func BenchmarkWorkerTxn(b *testing.B) {
	for _, capturing := range []bool{false, true} {
		name := "outside"
		if capturing {
			name = "capturing"
		}
		b.Run(name, func(b *testing.B) {
			node, err := cluster.NewNode("node0", cluster.NodeOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer node.Close()
			mw, err := New(Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer mw.Close()
			mw.AddNode(node)
			if err := mw.ProvisionTenant("t", "node0"); err != nil {
				b.Fatal(err)
			}
			c, err := wire.Dial(mw.Addr(), "t")
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			exec := func(sql string) {
				if _, err := c.Exec(sql); err != nil {
					b.Fatalf("%s: %v", sql, err)
				}
			}
			exec("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
			exec("INSERT INTO kv (k, v) VALUES (1, 0)")
			if capturing {
				tn, _ := mw.Tenant("t")
				tn.startCapture(false)
				defer tn.stopCapture()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exec("BEGIN")
				exec("SELECT v FROM kv WHERE k = 1")
				exec("UPDATE kv SET v = v + 1 WHERE k = 1")
				exec("COMMIT")
			}
		})
	}
}
