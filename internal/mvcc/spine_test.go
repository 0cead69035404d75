package mvcc

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"madeus/internal/sqlmini"
	"madeus/internal/storage"
)

// Tests for the chain directory (DESIGN.md §5i): chains are filed in blocks
// of 64 keys, block creation appends to the main sorted run of the spine or
// a pending one, a scan merges the pending runs and walks the main run
// without copying it; and the amortized prune trigger that keeps the freeze
// backlog from being rescanned per commit.

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
// code with the spine (Get goes through the striped block maps). It
// reports through Errorf so scanner goroutines may call it.
func scanMatchesOracle(t *testing.T, tb *Table, r *Txn, universe []sqlmini.Value) bool {
	t.Helper()
	var got []storage.Row
	tb.Scan(r, func(row storage.Row) bool { got = append(got, row); return true })
	var want []storage.Row
	for _, k := range universe {
		if row := tb.Get(r, k); row != nil {
			want = append(want, row.Clone())
		}
	}
	if len(got) != len(want) {
		t.Errorf("scan saw %d rows, oracle %d", len(got), len(want))
		return false
	}
	for i := range got {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Errorf("row %d differs: scan %v oracle %v", i, got[i], want[i])
			return false
		}
	}
	return true
}

// intKeys returns keys as INT values.
func intKeys(keys []int64) []sqlmini.Value {
	out := make([]sqlmini.Value, len(keys))
	for i, k := range keys {
		out[i] = key(k)
	}
	return out
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
		scanMatchesOracle(t, tb, r, intKeys(universe))
	})

	// Each inserter lands, 50 keys per transaction: every fourth
	// 3,200-key chunk of one ascending range (the restore shape — chunks
	// arrive out of key order, keys inside a chunk in order), then its
	// share of a shuffled range, then of a strictly descending one, then
	// every fourth key of one more range, so that all four fill the same
	// blocks at once. Two scanners run throughout, and each inserter scans
	// every 32nd transaction so scans land all along the load however the
	// scheduler paces the scanners; every scan must equal the committed
	// set of its own snapshot, in strict key order. Under -race this is
	// also the check that a slot filled under its stripe lock is safely
	// published to the scans that read it without one.
	t.Run("concurrent", func(t *testing.T) {
		const (
			inserters  = 4
			chunk      = 3200
			chunks     = 8
			perTxn     = 50
			shuffled   = 2000
			descBase   = 2_000_000
			shared     = 4000
			sharedBase = 3_000_000
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
		for i := 0; i < shared; i++ {
			lists[i%inserters] = append(lists[i%inserters], int64(sharedBase+i))
		}
		var all []int64
		for _, l := range lists {
			all = append(all, l...)
		}
		slices.Sort(all)
		universe := intKeys(all)

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

// TestScanBlocksMatchOracle holds the directory to the oracle on the key
// shapes its blocks must get right: keys on both sides of block edges and
// of zero, the least and greatest INTs, keys 64 or more apart (a block
// each), order_line's oid*10+k, and TEXT keys (a one-slot block each).
// Keys land in random order over transactions, some of which abort; then
// some rows are updated and some deleted, and the scan is checked again
// after Vacuum, and an index built afterwards holds every visible row.
func TestScanBlocksMatchOracle(t *testing.T) {
	orderLines := func() []int64 {
		var keys []int64
		rng := rand.New(rand.NewSource(17))
		for eb := int64(1); eb <= 3; eb++ {
			for seq := int64(1); seq < 400; seq += 1 + rng.Int63n(3) {
				oid := eb*10_000_000 + seq
				for k := int64(0); k <= rng.Int63n(3); k++ {
					keys = append(keys, oid*10+k)
				}
			}
		}
		return keys
	}
	spread := func(step int64) []int64 {
		var keys []int64
		for k := int64(-50); k < 250; k++ {
			keys = append(keys, k*step)
		}
		return keys
	}
	for _, tc := range []struct {
		name string
		keys []sqlmini.Value
	}{
		{"edges", intKeys([]int64{-65, -64, -63, -1, 0, 1, 62, 63, 64, 65, 127, 128,
			math.MinInt64, math.MinInt64 + 63, math.MinInt64 + 64, math.MaxInt64 - 64, math.MaxInt64 - 63, math.MaxInt64})},
		{"stride64", intKeys(spread(blockKeys))},
		{"stride97", intKeys(spread(97))},
		{"order_line", intKeys(orderLines())},
		{"text", func() []sqlmini.Value {
			var keys []sqlmini.Value
			for _, k := range []string{"", "a", "a\x00", "ab", "abc", "b", "ba", "z", "zz", "\xff"} {
				keys = append(keys, sqlmini.NewText(k))
			}
			for i := 0; i < 200; i++ {
				keys = append(keys, sqlmini.NewText(fmt.Sprintf("k%05d", i*37%1000)))
			}
			return keys
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kind := tc.keys[0].Kind
			s, err := storage.NewSchema("kv", []storage.Column{
				{Name: "k", Type: kind, PrimaryKey: true},
				{Name: "v", Type: sqlmini.KindInt},
			})
			if err != nil {
				t.Fatal(err)
			}
			m := NewManagerStriped(4)
			tb := NewTable(s, m)
			universe := slices.Clone(tc.keys)
			slices.SortFunc(universe, comparePK)
			universe = slices.Compact(universe)
			rng := rand.New(rand.NewSource(int64(len(universe))))
			order := slices.Clone(universe)
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			check := func(when string) {
				t.Helper()
				r := m.Begin()
				defer r.Abort()
				if !scanMatchesOracle(t, tb, r, universe) {
					t.Fatalf("%s: scan differs from the oracle", when)
				}
			}

			for txns := 0; len(order) > 0; txns++ {
				n := min(5, len(order))
				w := m.Begin()
				for i, k := range order[:n] {
					if err := tb.Insert(w, storage.Row{k, sqlmini.NewInt(int64(i))}); err != nil {
						t.Fatal(err)
					}
				}
				if txns%7 == 3 {
					if err := w.Abort(); err != nil {
						t.Fatal(err)
					}
				} else {
					mustCommit(t, w)
				}
				order = order[n:]
			}
			check("after the load")

			w := m.Begin()
			for i, k := range universe {
				switch i % 5 {
				case 1:
					if _, err := tb.Update(w, k, storage.Row{k, sqlmini.NewInt(100 + int64(i))}); err != nil {
						t.Fatal(err)
					}
				case 3:
					if _, err := tb.Delete(w, k); err != nil {
						t.Fatal(err)
					}
				}
			}
			mustCommit(t, w)
			check("after updates and deletes")
			tb.Vacuum(m.Horizon())
			check("after Vacuum")

			if err := tb.CreateIndex("by_v", "v"); err != nil {
				t.Fatal(err)
			}
			r := m.Begin()
			defer r.Abort()
			visible := 0
			tb.Scan(r, func(row storage.Row) bool {
				visible++
				pks, _ := tb.IndexLookup("v", row[1])
				if !slices.Contains(pks, row[0]) {
					t.Errorf("row %v missing from the backfilled index", row)
				}
				return true
			})
			if n := tb.Len(r); n != visible || n == 0 {
				t.Errorf("Len = %d, scan saw %d", n, visible)
			}
		})
	}
}

// firsts returns the first keys of blocks, each in units of blockKeys.
func firsts(run []*chainBlock) []int64 {
	var out []int64
	for _, b := range run {
		out = append(out, b.first.Int/blockKeys)
	}
	return out
}

// TestSpineInsertNeverMerges: block creation only ever appends, and a key
// whose block exists already adds nothing to the spine. After a key-ordered
// load and N out-of-order inserts, and before any scan, the main run is the
// ordered load's blocks exactly where they were plus the blocks that
// extended it, and the pending runs hold the rest, each extended by the
// blocks it was the greatest run below.
func TestSpineInsertNeverMerges(t *testing.T) {
	m, tb := testTable(t)
	w := m.Begin()
	const ordered = 100
	for b := int64(0); b < ordered; b++ {
		for _, k := range []int64{0, 1, blockKeys - 1} { // three keys, one block
			mustInsert(t, tb, w, (1000+b)*blockKeys+k, b)
		}
	}
	if len(tb.run) != ordered || len(tb.runs) != 0 {
		t.Fatalf("key-ordered load: run %d, %d pending runs; want %d and 0", len(tb.run), len(tb.runs), ordered)
	}
	before := slices.Clone(tb.run)

	// Blocks descending below the run, interleaved above it, and above
	// everything; then keys of blocks that exist, old and new.
	for _, b := range []int64{999, 998, 3, 5000, 4000, 4500, 9000} {
		mustInsert(t, tb, w, b*blockKeys+7, b)
	}
	for _, k := range []int64{1000*blockKeys + 5, 3*blockKeys + 60, 4000 * blockKeys, 9000*blockKeys + 63} {
		mustInsert(t, tb, w, k, k)
	}
	mustCommit(t, w)
	if !slices.Equal(tb.run[:ordered], before) {
		t.Fatal("an insert moved entries of the run")
	}
	if got := firsts(tb.run[ordered:]); !slices.Equal(got, []int64{5000, 9000}) {
		t.Errorf("blocks extending the main run: %v, want [5000 9000]", got)
	}
	var pending [][]int64
	for _, r := range tb.runs {
		pending = append(pending, firsts(r))
	}
	if want := [][]int64{{3}, {998}, {999, 4000, 4500}}; !slices.EqualFunc(pending, want, slices.Equal[[]int64]) {
		t.Errorf("pending runs %v, want %v", pending, want)
	}

	r := m.Begin()
	defer r.Abort()
	if n, want := tb.Len(r), 3*ordered+7+4; n != want {
		t.Fatalf("scan saw %d rows, want %d", n, want)
	}
	if len(tb.runs) != 0 || len(tb.run) != ordered+7 {
		t.Fatalf("after a scan: run %d, %d pending runs; want everything merged", len(tb.run), len(tb.runs))
	}
}

// TestSpineRunPerApplier: appliers that take turns landing ascending keys
// of their own chunks, the way a parallel restore does, leave at most one
// run each for the first scan to merge, and one spine entry per block.
func TestSpineRunPerApplier(t *testing.T) {
	const (
		appliers = 4
		chunk    = 5 * blockKeys
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
	entries := len(tb.run)
	for _, r := range tb.runs {
		entries += len(r)
	}
	if want := appliers * chunk / blockKeys; entries != want {
		t.Errorf("spine holds %d blocks for %d keys, want %d", entries, appliers*chunk, want)
	}
	r := m.Begin()
	defer r.Abort()
	scanMatchesOracle(t, tb, r, func() []sqlmini.Value {
		var u []sqlmini.Value
		for k := int64(0); k < appliers*chunk; k++ {
			u = append(u, key(k))
		}
		return u
	}())
}

// TestScanBorrowsRun: a scan walks the spine's own array, not a copy — two
// scans with no new block between them get the same array — and what a scan
// borrowed never changes afterwards: a key of a block the spine has adds
// nothing to it, an in-order block appends past the borrowed length, a
// merge builds a new array.
func TestScanBorrowsRun(t *testing.T) {
	m, tb := testTable(t)
	w := m.Begin()
	const gap = 10 * blockKeys // blocks of the load are ten blocks apart
	next := int64(0)
	for ; next < 100 || cap(tb.run) == len(tb.run); next++ { // leave spare capacity for an in-place append
		mustInsert(t, tb, w, next*gap, next)
	}
	a, b := tb.scanRun(), tb.scanRun()
	if &a[0] != &b[0] || len(a) != len(b) {
		t.Fatal("two scans with no insert between them walked different arrays")
	}
	if cap(a) != len(a) {
		t.Fatalf("borrowed run has cap %d beyond len %d: an append through it would write the shared array", cap(a), len(a))
	}
	borrowed := slices.Clone(a)

	mustInsert(t, tb, w, 1, 1) // a key of block 0: no new entry
	if c := tb.scanRun(); &c[0] != &a[0] || len(c) != len(a) {
		t.Fatal("a key of an existing block changed the spine")
	}
	mustInsert(t, tb, w, next*gap, next) // in order: appended in place
	if &tb.run[0] != &a[0] || len(tb.run) != len(a)+1 {
		t.Fatal("an in-order block with spare capacity did not append in place")
	}
	if !slices.Equal(a, borrowed) {
		t.Fatal("an in-order insert changed a borrowed prefix")
	}

	mustInsert(t, tb, w, 5*blockKeys, 5) // a block out of order: merged by the next scan
	c := tb.scanRun()
	if &c[0] == &a[0] {
		t.Fatal("a merge reused the array earlier scans borrowed")
	}
	if !slices.Equal(a, borrowed) {
		t.Fatal("a merge changed a borrowed prefix")
	}
	if len(c) != len(a)+2 || c[1].first != key(5*blockKeys) {
		t.Fatalf("merged run has %d entries, second %v; want %d and %d", len(c), c[1].first, len(a)+2, 5*blockKeys)
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
