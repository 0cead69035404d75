package mvcc

import "madeus/internal/sqlmini"

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
// number of versions removed. Empty chains are kept (their map entries are
// negligible and removing them would race in-flight primary-key lookups).
func (tb *Table) Vacuum(horizon CSN) int {
	removed := 0
	for si := range tb.stripes {
		s := &tb.stripes[si]
		s.mu.Lock()
		var chains []*rowChain
		s.each(func(_ sqlmini.Value, ch *rowChain) { chains = append(chains, ch) })
		s.mu.Unlock()

		for _, ch := range chains {
			ch.mu.Lock()
			kept := ch.versions[:0]
			for i := range ch.versions {
				v := ch.versions[i]
				if tb.dead(&v, horizon) {
					removed++
					continue
				}
				kept = append(kept, v)
			}
			// Zero the tail so dropped rows are collectable.
			for i := len(kept); i < len(ch.versions); i++ {
				ch.versions[i] = version{}
			}
			ch.versions = kept
			ch.mu.Unlock()
		}
	}
	tb.sweepIndexes()
	return removed
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
