package mvcc

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"madeus/internal/sqlmini"
	"madeus/internal/storage"
)

// Tests for the sorted chain spine (DESIGN.md §5i): scans walk a
// presorted chain directory maintained on chain creation instead of
// collecting and sorting the key set per call, and the amortized prune
// trigger that keeps the freeze backlog from being rescanned per commit.

// TestScanSpineOrderAndCompleteness inserts integer keys in random order
// across many transactions and checks that a scan sees exactly the
// committed set, ascending by primary key — the spine must stay sorted
// and complete under interleaved inserts, updates, and aborts.
func TestScanSpineOrderAndCompleteness(t *testing.T) {
	m, tb := testTable(t)
	rng := rand.New(rand.NewSource(7))
	keys := rng.Perm(500)
	live := map[int64]bool{}
	for _, k := range keys {
		w := m.Begin()
		mustInsert(t, tb, w, int64(k), int64(k)*10)
		if k%7 == 0 {
			if err := w.Abort(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		mustCommit(t, w)
		live[int64(k)] = true
	}
	r := m.Begin()
	defer r.Abort()
	var got []int64
	if err := tb.Scan(r, func(row storage.Row) bool {
		got = append(got, row[0].Int)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(live) {
		t.Fatalf("scan saw %d rows, want %d", len(got), len(live))
	}
	for i, k := range got {
		if !live[k] {
			t.Fatalf("scan returned key %d which is not committed-live", k)
		}
		if i > 0 && got[i-1] >= k {
			t.Fatalf("scan order violated: key %d at %d after %d", k, i, got[i-1])
		}
	}
}

// TestScanSpineTextKeys covers the comparePK fallback path: text primary
// keys must still come back in ascending order.
func TestScanSpineTextKeys(t *testing.T) {
	s, err := storage.NewSchema("kv", []storage.Column{
		{Name: "k", Type: sqlmini.KindText, PrimaryKey: true},
		{Name: "v", Type: sqlmini.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager()
	tb := NewTable(s, m)
	for _, k := range []string{"pear", "apple", "fig", "date", "cherry"} {
		w := m.Begin()
		if err := tb.Insert(w, storage.Row{sqlmini.NewText(k), sqlmini.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, w)
	}
	r := m.Begin()
	defer r.Abort()
	var got []string
	tb.Scan(r, func(row storage.Row) bool { got = append(got, row[0].Str); return true })
	want := []string{"apple", "cherry", "date", "fig", "pear"}
	if len(got) != len(want) {
		t.Fatalf("scan saw %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan order %v, want %v", got, want)
		}
	}
}

// TestScanSpineMatchesOracle drives random inserts and updates, then
// demands that a scan returns exactly what an independent reference
// computes: the inserted keys sorted in the test, each resolved by a point
// Get on the same snapshot. The reference shares no code with the spine.
func TestScanSpineMatchesOracle(t *testing.T) {
	m, tb := testTable(t)
	rng := rand.New(rand.NewSource(11))
	seen := map[int64]bool{}
	for i := 0; i < 300; i++ {
		w := m.Begin()
		k := rng.Int63n(64)
		if err := tb.Insert(w, row(k, int64(i))); err != nil {
			if _, err := tb.Update(w, key(k), row(k, int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, w)
		seen[k] = true
	}
	keys := make([]int64, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	r := m.Begin()
	defer r.Abort()
	var want []storage.Row
	for _, k := range keys {
		if got := tb.Get(r, key(k)); got != nil {
			want = append(want, got)
		}
	}
	var got []storage.Row
	tb.Scan(r, func(row storage.Row) bool { got = append(got, row); return true })
	if len(got) != len(want) {
		t.Fatalf("scan saw %d rows, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i][0].Int != want[i][0].Int || got[i][1].Int != want[i][1].Int {
			t.Fatalf("row %d differs: scan %v oracle %v", i, got[i], want[i])
		}
	}
}

// TestScanSpineConcurrentInserts races scans against inserters under the
// race detector: scans must never miss a row committed before their
// snapshot and must stay PK-ordered while the spine shifts underneath.
func TestScanSpineConcurrentInserts(t *testing.T) {
	m, tb := testTableStriped(t, 8)
	seed := m.Begin()
	for k := int64(0); k < 50; k++ {
		mustInsert(t, tb, seed, k*10, k)
	}
	mustCommit(t, seed)

	var inserters sync.WaitGroup
	for g := 0; g < 4; g++ {
		inserters.Add(1)
		go func(g int) {
			defer inserters.Done()
			for i := 0; i < 200; i++ {
				w := m.Begin()
				// Unique keys per goroutine, interleaved with the seeded range.
				if err := tb.Insert(w, row(int64(1000+g*1000+i), int64(i))); err != nil {
					t.Error(err)
					w.Abort()
					return
				}
				if _, err := w.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	var scanner sync.WaitGroup
	scanner.Add(1)
	go func() {
		defer scanner.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r := m.Begin()
			last := int64(-1)
			n := 0
			tb.Scan(r, func(row storage.Row) bool {
				if row[0].Int <= last {
					t.Errorf("scan out of order: %d after %d", row[0].Int, last)
					return false
				}
				last = row[0].Int
				n++
				return true
			})
			r.Abort()
			if n < 50 {
				t.Errorf("scan saw %d rows, want at least the 50 seeded", n)
				return
			}
		}
	}()
	inserters.Wait()
	close(stop)
	scanner.Wait()
	// Final state: all 850 rows visible in order.
	r := m.Begin()
	defer r.Abort()
	if n := tb.Len(r); n != 50+4*200 {
		t.Fatalf("final visible rows = %d, want %d", n, 50+4*200)
	}
}

// TestPruneTriggerAmortizedUnderLaggingHorizon pins the snapshot horizon
// with a long-lived reader and commits far more than pruneBatch writers.
// The freeze backlog must retain every one of them (nothing below the
// horizon may freeze), and — the regression — the trigger must stay on
// the enqueue counter: once the pin is released a single pass drains the
// whole backlog. Before the fix the trigger fired on queue length, so a
// lagging horizon made every commit rescan and reallocate the entire
// backlog.
func TestPruneTriggerAmortizedUnderLaggingHorizon(t *testing.T) {
	m, tb := testTable(t)
	w0 := m.Begin()
	mustInsert(t, tb, w0, 0, 0)
	mustCommit(t, w0)

	pin := m.Begin()
	if tb.Get(pin, key(0)) == nil { // materialize the snapshot's use
		t.Fatal("setup: pinned reader sees nothing")
	}

	const writers = 10 * pruneBatch
	for i := 1; i <= writers; i++ {
		w := m.Begin()
		if ok, err := tb.Update(w, key(0), row(0, int64(i))); err != nil || !ok {
			t.Fatalf("writer %d: %v ok=%v", i, err, ok)
		}
		mustCommit(t, w)
	}
	// Horizon is pinned below every writer CSN: all stay queued.
	if n := m.PendingFreezes(); n != writers {
		t.Fatalf("PendingFreezes = %d under pinned horizon, want %d", n, writers)
	}
	if err := pin.Abort(); err != nil {
		t.Fatal(err)
	}
	// One pass drains the entire backlog now that the horizon moved.
	if removed := m.PruneStates(); removed != writers {
		t.Fatalf("PruneStates removed %d dead versions, want %d", removed, writers)
	}
	if n := m.PendingFreezes(); n != 0 {
		t.Fatalf("PendingFreezes = %d after drain, want 0", n)
	}
	if n := m.StateCount(); n != 0 {
		t.Fatalf("StateCount = %d after drain, want 0", n)
	}
	r := m.Begin()
	defer r.Abort()
	if got := tb.Get(r, key(0)); got == nil || got[1].Int != writers {
		t.Fatalf("latest value lost after drain: %v", got)
	}
}
