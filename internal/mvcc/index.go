package mvcc

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"madeus/internal/sqlmini"
	"madeus/internal/storage"
)

// Secondary indexes: equality indexes mapping a column value to the set of
// primary keys whose version chains contain that value. Entries are a
// SUPERSET of the visible truth — readers re-check visibility and the
// predicate against the fetched row — so index maintenance never needs
// transactional coordination: writers add entries eagerly, and stale
// entries are swept by Vacuum. The registry is an immutable slice published
// through an atomic pointer: index DDL replaces it under imu, and the
// per-row fan-out loads it without a lock — one load and out for a table
// with no index.

// colIndex is one secondary index.
type colIndex struct {
	name string
	col  int

	mu      sync.RWMutex                                 //madeusvet:lockrank mvcc-index 46
	entries map[sqlmini.Value]map[sqlmini.Value]struct{} // value -> set of PKs
}

// add files pk under val. A TEXT value or key is filed as a copy, so an
// entry never keeps a caller's statement text or a dropped page alive.
func (ix *colIndex) add(val, pk sqlmini.Value) {
	if val.IsNull() {
		return // NULL never matches an equality predicate
	}
	ix.mu.Lock()
	set, ok := ix.entries[val]
	if !ok {
		set = make(map[sqlmini.Value]struct{})
		ix.entries[owned(val)] = set
	}
	if _, ok := set[pk]; !ok {
		set[owned(pk)] = struct{}{}
	}
	ix.mu.Unlock()
}

// owned returns v with a TEXT's bytes copied.
func owned(v sqlmini.Value) sqlmini.Value {
	if v.Kind == sqlmini.KindText {
		v.Str = strings.Clone(v.Str)
	}
	return v
}

func (ix *colIndex) lookup(val sqlmini.Value) []sqlmini.Value {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	set := ix.entries[val]
	out := make([]sqlmini.Value, 0, len(set))
	for pk := range set {
		out = append(out, pk)
	}
	return out
}

// CreateIndex builds a secondary equality index over the named column. The
// build is online: the index is registered under the all-stripes lock
// (stripe order, DESIGN.md §5i), so every chain was either filed in the
// directory before — and its block is in the spine the backfill walks — or
// is created by a writer that already sees the registered index; then the
// directory's chains are backfilled (duplicates are harmless).
func (tb *Table) CreateIndex(name, column string) error {
	col := tb.Schema.ColumnIndex(column)
	if col < 0 {
		return fmt.Errorf("mvcc: table %s has no column %q", tb.Schema.Name, column)
	}
	ix := &colIndex{name: name, col: col, entries: make(map[sqlmini.Value]map[sqlmini.Value]struct{})}

	tb.lockAllStripes()
	tb.imu.Lock()
	old := tb.indexList()
	if slices.ContainsFunc(old, func(ix *colIndex) bool { return ix.name == name }) {
		tb.imu.Unlock()
		tb.unlockAllStripes()
		return fmt.Errorf("mvcc: index %q already exists on %s", name, tb.Schema.Name)
	}
	next := append(slices.Clip(old), ix) // a new array: the published one is never written
	tb.indexes.Store(&next)
	tb.imu.Unlock()
	tb.unlockAllStripes()

	// Backfill every version's value (any version might be visible to
	// some snapshot).
	tb.eachChain(func(pk sqlmini.Value, ch *rowChain) {
		ch.mu.Lock()
		for _, v := range tb.versions(ch) {
			ix.add(tb.column(v.ref, col), pk)
		}
		ch.mu.Unlock()
	})
	return nil
}

// DropIndex removes a secondary index.
func (tb *Table) DropIndex(name string) error {
	tb.imu.Lock()
	defer tb.imu.Unlock()
	old := tb.indexList()
	i := slices.IndexFunc(old, func(ix *colIndex) bool { return ix.name == name })
	if i < 0 {
		return fmt.Errorf("mvcc: index %q does not exist on %s", name, tb.Schema.Name)
	}
	next := slices.Concat(old[:i], old[i+1:])
	tb.indexes.Store(&next)
	return nil
}

// indexList returns the published index list; callers must not modify it.
func (tb *Table) indexList() []*colIndex {
	if p := tb.indexes.Load(); p != nil {
		return *p
	}
	return nil
}

// Indexes lists index names and their columns (dump support).
func (tb *Table) Indexes() map[string]string {
	idxs := tb.indexList()
	out := make(map[string]string, len(idxs))
	for _, ix := range idxs {
		out[ix.name] = tb.Schema.Columns[ix.col].Name
	}
	return out
}

// IndexLookup returns the candidate primary keys whose chains may hold
// value in the named COLUMN (not index name), or ok=false when no index
// covers that column. Candidates are a superset: callers must fetch each
// row with Get and re-apply the predicate.
func (tb *Table) IndexLookup(column string, val sqlmini.Value) (pks []sqlmini.Value, ok bool) {
	col := tb.Schema.ColumnIndex(column)
	if col < 0 {
		return nil, false
	}
	for _, ix := range tb.indexList() {
		if ix.col == col {
			return ix.lookup(val), true
		}
	}
	return nil, false
}

// indexAdd fans a new version's value, as its column stores it, out to all
// matching indexes.
func (tb *Table) indexAdd(row storage.Row, pk sqlmini.Value) {
	for _, ix := range tb.indexList() {
		ix.add(tb.Schema.Widen(ix.col, row[ix.col]), pk)
	}
}

// sweepIndexes drops entries whose chains no longer contain the value in
// any version. Called by Vacuum after version pruning.
//
// No index lock is held while a row lock is taken: a backfill files rows
// into a new index under their row locks (CreateIndex), so the order is row
// lock, then index lock. The sweep collects an index's entries first, then
// for each one takes its chain's lock and, only while that lock proves the
// value gone, the index lock to delete it. A writer stores a version under
// the chain lock and files its value after, so either the sweep sees the
// version and keeps the entry, or the writer files the entry again after
// the sweep deleted it.
func (tb *Table) sweepIndexes() int {
	removed := 0
	for _, ix := range tb.indexList() {
		for _, e := range ix.snapshot() {
			ch := tb.chain(e.pk, false)
			ch.mu.Lock()
			if !tb.chainHolds(ch, ix.col, e.val) && ix.remove(e.val, e.pk) {
				removed++
			}
			ch.mu.Unlock()
		}
	}
	return removed
}

// indexEntry is one (value, primary key) pair of an index.
type indexEntry struct{ val, pk sqlmini.Value }

// snapshot returns the index's entries.
func (ix *colIndex) snapshot() []indexEntry {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var out []indexEntry
	for val, set := range ix.entries {
		for pk := range set {
			out = append(out, indexEntry{val, pk})
		}
	}
	return out
}

// remove deletes pk from val's entry and reports whether it was there.
func (ix *colIndex) remove(val, pk sqlmini.Value) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	set, ok := ix.entries[val]
	if !ok {
		return false
	}
	if _, ok := set[pk]; !ok {
		return false
	}
	delete(set, pk)
	if len(set) == 0 {
		delete(ix.entries, val)
	}
	return true
}

// chainHolds reports whether a version of ch stores val in column col.
// Caller holds ch.mu.
func (tb *Table) chainHolds(ch *rowChain, col int, val sqlmini.Value) bool {
	for _, v := range tb.versions(ch) {
		if tb.column(v.ref, col) == val {
			return true
		}
	}
	return false
}
