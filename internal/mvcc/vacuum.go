package mvcc

import (
	"slices"

	"madeus/internal/sqlmini"
)

// Vacuum support: version chains grow with every update (old versions are
// superseded, not removed, and aborted versions linger invisibly until the
// abort-time undo or this pass removes them). Vacuum prunes versions that
// no current or future snapshot can see, bounded by the oldest snapshot
// still held by an active transaction — the same horizon rule PostgreSQL's
// VACUUM uses. Eager state pruning (manager.go) handles the common case;
// Vacuum remains the backstop that also sweeps index entries.

// Horizon returns the oldest snapshot any active transaction holds (or the
// latest CSN when none are active): versions superseded at or before the
// horizon are unreachable.
//
// The watermark is loaded before the stripe scan and Begin reads the
// watermark under its stripe lock, so any transaction the scan misses
// started with a snapshot at or above the returned horizon.
func (m *Manager) Horizon() CSN {
	h := CSN(m.lastCSN.Load())
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.RLock()
		for _, st := range s.states {
			if st.status == StatusActive && st.snap < h {
				h = st.snap
			}
		}
		s.mu.RUnlock()
	}
	return h
}

// Vacuum removes dead versions from the table: versions created by aborted
// transactions, and versions superseded (deleted or overwritten) by a
// transaction that committed at or before the horizon. It returns the
// number of versions removed. Empty chains are kept (their directory slots
// are negligible and removing them would race in-flight primary-key
// lookups).
//
// Vacuum then compacts the table's pages if they hold more dead bytes than
// live ones (see compactIfSparse).
func (tb *Table) Vacuum(horizon CSN) int {
	removed := 0
	tb.eachChain(func(_ sqlmini.Value, ch *rowChain) {
		ch.mu.Lock()
		vs := tb.versions(ch)
		kept := vs[:0]
		for _, v := range vs {
			if tb.dead(&v, horizon) {
				removed++
				tb.drop(v.ref)
				continue
			}
			kept = append(kept, v)
		}
		tb.setVersions(ch, kept)
		ch.mu.Unlock()
	})
	tb.sweepIndexes()
	tb.compactIfSparse()
	return removed
}

// drop counts the row at r as dead: its version has just been removed. The
// caller holds the lock of the chain it was removed from.
func (tb *Table) drop(r ref) {
	tb.deadBytes.Add(int64(tb.EncodedSize(bytesAt(tb.pageDir(), r))))
}

// compactIfSparse compacts the table's pages when, of the bytes they spent
// since the last compaction, more are dead — rows of removed versions —
// than not. So a compaction copies fewer bytes than the dead ones it
// frees, and the pages never hold more than about twice the live rows for
// long. Vacuum runs it, and so does every prune pass that removed a
// version of the table.
func (tb *Table) compactIfSparse() {
	tb.compactMu.Lock()
	defer tb.compactMu.Unlock()
	var written int64
	for i := range tb.stripes {
		c := &tb.stripes[i].cursor
		c.mu.Lock()
		written += c.written
		c.mu.Unlock()
	}
	if dead := tb.deadBytes.Load(); dead > written-dead {
		tb.compact()
	}
}

// compact copies every version's row into fresh pages and drops the pages
// they were in. The copies go through one cursor of compaction's own, so
// they fill whole pages one after another. Writes go on meanwhile, each
// stripe into a fresh page of its own: a row is encoded under its chain's
// lock (see store), so once every cursor has been closed a row lands in a
// fresh page, and a row written before that is in its chain by the time
// compaction takes the chain's lock to move it. Readers resolve a ref
// under its chain's lock against a directory loaded there too, so one
// that read a ref before its move still finds the old page (see pageDir).
// Caller holds tb.compactMu.
func (tb *Table) compact() {
	fresh := len(tb.pageDir()) // pages below fresh are dropped
	for i := range tb.stripes {
		c := &tb.stripes[i].cursor
		c.mu.Lock()
		c.page, c.used, c.written = nil, 0, 0
		c.mu.Unlock()
	}
	tb.deadBytes.Store(0)
	var copies pageCursor
	tb.eachChain(func(_ sqlmini.Value, ch *rowChain) {
		ch.mu.Lock()
		dir := tb.pageDir()
		vs := tb.versions(ch)
		for i := range vs {
			v := &vs[i]
			if v.ref.page() < fresh {
				b := bytesAt(dir, v.ref)
				v.ref = tb.storeEncoded(&copies, b[:tb.EncodedSize(b)])
			}
		}
		ch.mu.Unlock()
	})
	c := &tb.stripes[0].cursor
	c.mu.Lock()
	c.written += copies.written
	c.mu.Unlock()
	tb.pagesMu.Lock()
	dir := slices.Clone(tb.pageDir())
	clear(dir[:fresh])
	tb.pages.Store(&dir)
	tb.pagesMu.Unlock()
}

// dead reports whether no snapshot at or after the horizon can see v.
// FrozenTxn creators report committed (statusOf), so frozen versions are
// only removed once a committed deleter passes the horizon like any other.
func (tb *Table) dead(v *version, horizon CSN) bool {
	cst, ccsn := tb.mgr.statusOf(v.xmin)
	switch cst {
	case StatusAborted:
		return true
	case StatusActive:
		return false
	}
	_ = ccsn
	if v.xmax == 0 {
		return false
	}
	dst, dcsn := tb.mgr.statusOf(v.xmax)
	// Superseded before the horizon: every snapshot ≥ horizon sees the
	// deleter's outcome instead of this version.
	return dst == StatusCommitted && dcsn <= horizon
}
