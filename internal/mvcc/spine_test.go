package mvcc

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"madeus/internal/sqlmini"
	"madeus/internal/storage"
)

// Tests for the chain directory (DESIGN.md §5i): chain creation appends to
// the main sorted run or a pending one, a scan merges the pending runs and
// walks the main run without copying it; and the amortized prune trigger
// that keeps the freeze backlog from being rescanned per commit.

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
// keys must still come back in ascending order, both from the first merge
// (empty run) and from a merge into a run that already holds text keys.
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
	insertThenScan := func(keys []string, want []string) {
		t.Helper()
		for _, k := range keys {
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
		if !slices.Equal(got, want) {
			t.Fatalf("scan order %v, want %v", got, want)
		}
	}
	insertThenScan([]string{"pear", "apple", "fig", "date", "cherry"},
		[]string{"apple", "cherry", "date", "fig", "pear"})
	insertThenScan([]string{"quince", "banana", "aardvark", "elderberry"},
		[]string{"aardvark", "apple", "banana", "cherry", "date", "elderberry", "fig", "pear", "quince"})
}

// scanMatchesOracle demands that a scan on r returns exactly what an
// independent reference computes: every key of the sorted universe
// resolved by a point Get on the same snapshot. The reference shares no
// code with the chain directory (Get goes through the striped row maps).
// It reports through Errorf so scanner goroutines may call it.
func scanMatchesOracle(t *testing.T, tb *Table, r *Txn, universe []int64) bool {
	t.Helper()
	var got []storage.Row
	tb.Scan(r, func(row storage.Row) bool { got = append(got, row); return true })
	var want []storage.Row
	for _, k := range universe {
		if row := tb.Get(r, key(k)); row != nil {
			want = append(want, row.Clone())
		}
	}
	if len(got) != len(want) {
		t.Errorf("scan saw %d rows, oracle %d", len(got), len(want))
		return false
	}
	for i := range got {
		if got[i][0].Int != want[i][0].Int || got[i][1].Int != want[i][1].Int {
			t.Errorf("row %d differs: scan %v oracle %v", i, got[i], want[i])
			return false
		}
	}
	return true
}

// TestScanSpineMatchesOracle holds scans to the oracle above, first after
// random single-threaded inserts and updates, then while four inserters
// land keys the way a migration's restore appliers do.
func TestScanSpineMatchesOracle(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
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
		universe := make([]int64, 0, len(seen))
		for k := range seen {
			universe = append(universe, k)
		}
		slices.Sort(universe)
		r := m.Begin()
		defer r.Abort()
		scanMatchesOracle(t, tb, r, universe)
	})

	// Each inserter lands, 50 keys per transaction: every fourth
	// 3,200-key chunk of one ascending range (the restore shape — chunks
	// arrive out of key order, keys inside a chunk in order), then its
	// share of a shuffled range, then of a strictly descending one. Two
	// scanners run throughout, and each inserter scans every 32nd
	// transaction so scans land all along the load however the scheduler
	// paces the scanners; every scan must equal the committed set of its
	// own snapshot, in strict key order.
	t.Run("concurrent", func(t *testing.T) {
		const (
			inserters = 4
			chunk     = 3200
			chunks    = 8
			perTxn    = 50
			shuffled  = 2000
			descBase  = 2_000_000
		)
		m, tb := testTableStriped(t, 8)
		lists := make([][]int64, inserters)
		for c := 0; c < chunks; c++ {
			for k := c * chunk; k < (c+1)*chunk; k++ {
				lists[c%inserters] = append(lists[c%inserters], int64(k))
			}
		}
		for i, k := range rand.New(rand.NewSource(13)).Perm(shuffled) {
			lists[i%inserters] = append(lists[i%inserters], int64(1_000_000+k))
		}
		for i := 0; i < shuffled; i++ {
			lists[i%inserters] = append(lists[i%inserters], int64(descBase-i))
		}
		var universe []int64
		for _, l := range lists {
			universe = append(universe, l...)
		}
		slices.Sort(universe)

		var writers sync.WaitGroup
		for _, keys := range lists {
			writers.Add(1)
			go func(keys []int64) {
				defer writers.Done()
				for txns := 1; len(keys) > 0; txns++ {
					if txns%32 == 0 {
						r := m.Begin()
						scanMatchesOracle(t, tb, r, universe)
						r.Abort()
					}
					n := min(perTxn, len(keys))
					w := m.Begin()
					for _, k := range keys[:n] {
						if err := tb.Insert(w, row(k, k)); err != nil {
							t.Error(err)
							w.Abort()
							return
						}
					}
					if _, err := w.Commit(); err != nil {
						t.Error(err)
						return
					}
					keys = keys[n:]
				}
			}(keys)
		}
		stop := make(chan struct{})
		var scanners sync.WaitGroup
		for g := 0; g < 2; g++ {
			scanners.Add(1)
			go func() {
				defer scanners.Done()
				for {
					r := m.Begin()
					ok := scanMatchesOracle(t, tb, r, universe)
					r.Abort()
					select {
					case <-stop:
						return
					default:
					}
					if !ok {
						return
					}
				}
			}()
		}
		writers.Wait()
		close(stop)
		scanners.Wait()

		r := m.Begin()
		defer r.Abort()
		scanMatchesOracle(t, tb, r, universe)
		if n := tb.Len(r); n != len(universe) {
			t.Fatalf("final visible rows = %d, want %d", n, len(universe))
		}
	})
}

// TestSpineInsertNeverMerges: chain creation only ever appends. After a
// key-ordered load and N out-of-order inserts, and before any scan, the
// main run is the ordered load exactly where it was plus the keys that
// extended it, and the pending runs hold the rest, each extended by the
// keys it was the greatest run below.
func TestSpineInsertNeverMerges(t *testing.T) {
	m, tb := testTable(t)
	w := m.Begin()
	const ordered = 100
	for k := int64(0); k < ordered; k++ {
		mustInsert(t, tb, w, 1000+k, k)
	}
	if len(tb.run) != ordered || len(tb.runs) != 0 {
		t.Fatalf("key-ordered load: run %d, %d pending runs; want %d and 0", len(tb.run), len(tb.runs), ordered)
	}
	before := slices.Clone(tb.run)

	// Descending below the run, interleaved above it, and above
	// everything.
	for _, k := range []int64{999, 998, 3, 5000, 4000, 4500, 9000} {
		mustInsert(t, tb, w, k, k)
	}
	mustCommit(t, w)
	keys := func(run []pkChain) []int64 {
		var out []int64
		for _, e := range run {
			out = append(out, e.pk.Int)
		}
		return out
	}
	if !slices.Equal(tb.run[:ordered], before) {
		t.Fatal("an insert moved entries of the run")
	}
	if got := keys(tb.run[ordered:]); !slices.Equal(got, []int64{5000, 9000}) {
		t.Errorf("keys extending the main run: %v, want [5000 9000]", got)
	}
	var pending [][]int64
	for _, r := range tb.runs {
		pending = append(pending, keys(r))
	}
	if want := [][]int64{{3}, {998}, {999, 4000, 4500}}; !slices.EqualFunc(pending, want, slices.Equal[[]int64]) {
		t.Errorf("pending runs %v, want %v", pending, want)
	}

	r := m.Begin()
	defer r.Abort()
	if n := tb.Len(r); n != ordered+7 {
		t.Fatalf("scan saw %d rows, want %d", n, ordered+7)
	}
	if len(tb.runs) != 0 || len(tb.run) != ordered+7 {
		t.Fatalf("after a scan: run %d, %d pending runs; want everything merged", len(tb.run), len(tb.runs))
	}
}

// TestSpineRunPerApplier: appliers that take turns landing ascending keys
// of their own chunks, the way a parallel restore does, leave at most one
// run each for the first scan to merge.
func TestSpineRunPerApplier(t *testing.T) {
	const (
		appliers = 4
		chunk    = 300
		perTxn   = 7
	)
	m, tb := testTable(t)
	var next [appliers]int64
	for a := range next {
		next[a] = int64(a * chunk)
	}
	for landed := 0; landed < appliers*chunk; {
		for a := range next {
			w := m.Begin()
			for n := 0; n < perTxn && next[a] < int64((a+1)*chunk); n++ {
				mustInsert(t, tb, w, next[a], 0)
				next[a]++
				landed++
			}
			mustCommit(t, w)
		}
	}
	if n := len(tb.runs) + 1; n > appliers {
		t.Errorf("%d runs for %d appliers", n, appliers)
	}
	r := m.Begin()
	defer r.Abort()
	scanMatchesOracle(t, tb, r, func() []int64 {
		var u []int64
		for k := int64(0); k < appliers*chunk; k++ {
			u = append(u, k)
		}
		return u
	}())
}

// TestScanBorrowsRun: a scan walks the directory's own array, not a copy —
// two scans with no insert between them get the same array — and what a
// scan borrowed never changes afterwards: an in-order insert appends past
// the borrowed length, a merge builds a new array.
func TestScanBorrowsRun(t *testing.T) {
	m, tb := testTable(t)
	w := m.Begin()
	next := int64(0)
	for ; next < 100 || cap(tb.run) == len(tb.run); next++ { // leave spare capacity for an in-place append
		mustInsert(t, tb, w, next*10, next)
	}
	a, b := tb.scanRun(), tb.scanRun()
	if &a[0] != &b[0] || len(a) != len(b) {
		t.Fatal("two scans with no insert between them walked different arrays")
	}
	if cap(a) != len(a) {
		t.Fatalf("borrowed run has cap %d beyond len %d: an append through it would write the shared array", cap(a), len(a))
	}
	borrowed := slices.Clone(a)

	mustInsert(t, tb, w, next*10, next) // in order: appended in place
	if &tb.run[0] != &a[0] || len(tb.run) != len(a)+1 {
		t.Fatal("an in-order insert with spare capacity did not append in place")
	}
	if !slices.Equal(a, borrowed) {
		t.Fatal("an in-order insert changed a borrowed prefix")
	}

	mustInsert(t, tb, w, 5, 5) // out of order: merged by the next scan
	c := tb.scanRun()
	if &c[0] == &a[0] {
		t.Fatal("a merge reused the array earlier scans borrowed")
	}
	if !slices.Equal(a, borrowed) {
		t.Fatal("a merge changed a borrowed prefix")
	}
	if len(c) != len(a)+2 || c[1].pk != key(5) {
		t.Fatalf("merged run has %d entries, second %v; want %d and 5", len(c), c[1].pk, len(a)+2)
	}
	mustCommit(t, w)
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
