package core

import (
	"fmt"
	"strings"
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

// TestFirstWriteWaitsOutsideRegion: inside the capture window, A is a
// captured transaction holding row 0's lock, and B opens with an UPDATE of
// row 0. B's first operation must not hold Algorithm 1's critical region
// while it waits on that lock, or A's COMMIT, which needs the region, waits
// out mvcc's lock timeout and B gets a lock-timeout error that SI never
// gives. B's snapshot is stamped before its write goes out; A commits, and
// B fails first-updater-wins, as outside the window.
func TestFirstWriteWaitsOutsideRegion(t *testing.T) {
	firstWriteBehindCapturedLock(t, false)
}

// TestAutocommitWriteWaitsOutsideRegion is TestFirstWriteWaitsOutsideRegion
// with B's UPDATE an autocommit write.
func TestAutocommitWriteWaitsOutsideRegion(t *testing.T) {
	firstWriteBehindCapturedLock(t, true)
}

func firstWriteBehindCapturedLock(t *testing.T, autocommit bool) {
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
	defer tn.stopCapture()
	mustExecAll(t, a, "BEGIN", "SELECT bal FROM acct WHERE id = 0", "UPDATE acct SET bal = 7 WHERE id = 0")
	bErr := make(chan error, 1)
	go func() {
		if !autocommit {
			if _, err := b.Exec("BEGIN"); err != nil {
				bErr <- err
				return
			}
		}
		_, err := b.Exec("UPDATE acct SET bal = 9 WHERE id = 0")
		bErr <- err
	}()
	// B's SSB is stamped at its SNAPSHOT, before its UPDATE goes out.
	for activeFirst() < 2 {
		select {
		case err := <-bErr:
			t.Fatalf("B's UPDATE returned %v before A committed: it waited on the row lock inside the region", err)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	mustExecAll(t, a, "COMMIT")
	if err := <-bErr; err == nil || !strings.Contains(err.Error(), "could not serialize") {
		t.Fatalf("B's UPDATE: %v, want a serialization failure", err)
	}
	if !autocommit {
		mustExecAll(t, b, "ROLLBACK")
	}
	res, err := b.Exec("SELECT bal FROM acct WHERE id = 0")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int; got != 7 {
		t.Errorf("row 0 bal = %d, want A's 7", got)
	}
	if got := tn.MLC(); got != base+1 {
		t.Errorf("MLC = %d, want %d", got, base+1)
	}
	if n := tn.SSLLen(); n != 1 {
		t.Errorf("SSL holds %d syncsets, want A's 1", n)
	}
	if n := activeFirst(); n != 0 {
		t.Errorf("%d active first operations after both transactions ended, want 0", n)
	}
}

// BenchmarkWorkerTxn times one update through the middleware in three
// shapes: read-first (BEGIN, a first read, an UPDATE, COMMIT), write-first
// (BEGIN, the UPDATE, COMMIT) and an autocommit UPDATE. Outside the capture
// window each relays without Algorithm 1's critical region. Capturing, the
// opening statement and the COMMIT cross the region and the syncset is
// linked; an opening write adds a SNAPSHOT round trip, and the autocommit
// write becomes BEGIN, SNAPSHOT, the write and COMMIT (worker.openWrite).
func BenchmarkWorkerTxn(b *testing.B) {
	update := "UPDATE kv SET v = v + 1 WHERE k = 1"
	shapes := []struct {
		name  string
		stmts []string
	}{
		{"read-first", []string{"BEGIN", "SELECT v FROM kv WHERE k = 1", update, "COMMIT"}},
		{"write-first", []string{"BEGIN", update, "COMMIT"}},
		{"autocommit", []string{update}},
	}
	for _, shape := range shapes {
		for _, capturing := range []bool{false, true} {
			name := shape.name + "/outside"
			if capturing {
				name = shape.name + "/capturing"
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
					for _, sql := range shape.stmts {
						exec(sql)
					}
				}
			})
		}
	}
}
