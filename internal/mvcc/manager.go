// Package mvcc implements multi-version concurrency control with snapshot
// isolation and the first-updater-wins rule, mirroring the semantics of the
// DBMSs the paper targets (Oracle, SQL Server, PostgreSQL; Sec 2.3).
//
// A transaction's snapshot is the set of transactions that committed before
// it started, identified by a commit sequence number (CSN) watermark; the
// snapshot is taken lazily at the transaction's first operation (Sec 3.1).
// Writers take per-row write locks. A writer that finds the row locked by a
// concurrent active transaction blocks; if that transaction commits, the
// waiter aborts with ErrSerialization (first-updater-wins), and if it
// aborts, the waiter proceeds.
//
// The transaction-status table and the row store are both striped by a
// power-of-two hash (DESIGN.md §5i): Begin, Commit, and the per-version
// statusOf calls on the visibility path contend only on one stripe instead
// of a manager-wide RWMutex, and CSN assignment is serialized by a tiny
// dedicated mutex so status publication stays ordered before the watermark
// advance.
package mvcc

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"madeus/internal/invariant"
	"madeus/internal/sqlmini"
	"madeus/internal/storage"
)

// TxnID identifies a transaction within one tenant database.
type TxnID uint64

// CSN is a commit sequence number; snapshots are CSN watermarks.
type CSN uint64

// Status is the lifecycle state of a transaction.
type Status int

// Transaction states.
const (
	StatusActive Status = iota
	StatusCommitted
	StatusAborted
)

// FrozenTxn is the sentinel creator ID a version's xmin is rewritten to
// when its real creator's txnState is pruned: it means "committed at or
// below every snapshot that can still exist", so statusOf reports it as
// committed with CSN 0. Real IDs start at 1 and are assigned sequentially,
// so the sentinel is unreachable.
const FrozenTxn = ^TxnID(0)

// DefaultStripes is the default stripe count for the transaction-status
// table and the per-table row maps. Must be a power of two.
const DefaultStripes = 16

// pruneBatch is how many finished writer states accumulate before an
// eager prune pass freezes their versions and drops the states. Small
// enough to bound the states map, large enough that single-transaction
// unit tests never observe a state disappearing under them.
const pruneBatch = 64

// Sentinel errors surfaced to the engine (which maps them onto SQLSTATE-like
// error strings for the wire protocol).
var (
	// ErrSerialization is the first-updater-wins abort: a concurrent
	// transaction updated the same row and committed first.
	ErrSerialization = errors.New("mvcc: could not serialize access due to concurrent update")
	// ErrUniqueViolation reports a duplicate primary key.
	ErrUniqueViolation = errors.New("mvcc: duplicate key value violates unique constraint")
	// ErrLockTimeout reports that a row lock could not be acquired in
	// time (our stand-in for deadlock detection).
	ErrLockTimeout = errors.New("mvcc: lock wait timeout (possible deadlock)")
	// ErrTxnDone reports use of a finished transaction.
	ErrTxnDone = errors.New("mvcc: transaction already finished")
)

// Manager assigns transaction IDs, snapshots, and CSNs for one tenant
// database, and tracks transaction status for visibility checks.
type Manager struct {
	// LockTimeout bounds row-lock waits; beyond it the waiter aborts
	// with ErrLockTimeout. Zero selects a 2s default.
	LockTimeout time.Duration

	nextTxn atomic.Uint64
	lastCSN atomic.Uint64

	// csnMu serializes CSN assignment and publication: a commit flips
	// the state to committed under its stripe lock BEFORE storing the
	// new watermark, so a snapshot taken at watermark W always observes
	// every CSN ≤ W as committed. Atomics alone cannot give that order.
	csnMu sync.Mutex //madeusvet:lockrank mvcc-csn 43

	mask    uint64
	stripes []txnStripe

	// tableStripes is the row-map stripe count Tables bound to this
	// manager inherit (power of two).
	tableStripes int

	// pruneMu guards only the pending queue; freeze work runs with it
	// released so commits never wait behind a prune pass.
	pruneMu sync.Mutex //madeusvet:lockrank mvcc-prune 41
	pending freezeQueue
	// sincePrune counts enqueues since the last prune pass. The trigger
	// works off this counter, NOT off len(pending): under heavy load the
	// snapshot horizon lags the commit stream, so the queue sits above any
	// fixed length permanently, and a length trigger would rescan (and
	// reallocate) the entire backlog on every single commit.
	sincePrune int
}

// txnStripe is one shard of the transaction-status table.
type txnStripe struct {
	mu     sync.RWMutex //madeusvet:lockrank mvcc-txn 44
	states map[TxnID]txnState
}

type txnState struct {
	status Status
	csn    CSN
	snap   CSN // snapshot at Begin; used by the vacuum horizon
}

// pendingFreeze is a committed writer whose state is waiting for the
// snapshot horizon to pass its CSN, at which point its versions are frozen
// (xmin → FrozenTxn, superseded versions removed) and the state dropped.
// Its row locks are the next n entries of its queue's arena.
type pendingFreeze struct {
	id  TxnID
	csn CSN
	n   int
}

// freezeQueue is committed writers in commit order, and the row locks each
// held, back to back in arena: the queue's own copy, so a Txn keeps its
// lock list for its next transaction.
type freezeQueue struct {
	txns  []pendingFreeze
	arena []heldRow
}

// add queues p, whose locks are held.
func (q *freezeQueue) add(p pendingFreeze, held []heldRow) {
	p.n = len(held)
	q.txns = append(q.txns, p)
	q.arena = append(q.arena, held...)
}

// NewManager returns a transaction manager with the default stripe count.
func NewManager() *Manager { return NewManagerStriped(DefaultStripes) }

// NewManagerStriped returns a transaction manager with n stripes for the
// status table and for row maps of tables bound to it. n is rounded up to
// a power of two; values < 1 select 1 (the unsharded layout).
func NewManagerStriped(n int) *Manager {
	n = ceilPow2(n)
	m := &Manager{
		mask:         uint64(n - 1),
		stripes:      make([]txnStripe, n),
		tableStripes: n,
	}
	for i := range m.stripes {
		m.stripes[i].states = make(map[TxnID]txnState)
	}
	return m
}

func ceilPow2(n int) int {
	if n < 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func (m *Manager) stripe(id TxnID) *txnStripe {
	return &m.stripes[uint64(id)&m.mask]
}

// Txn is one transaction. A Txn is used by a single session goroutine;
// Manager and table internals handle cross-transaction synchronization.
//
// A Txn may be begun again once done (BeginIn), as an engine session reuses
// one for all its transactions. Nothing keeps a *Txn past its transaction:
// the freeze queue copies its lock list, a row-lock waiter keeps only its
// wake channel, and a version names its creator by ID.
type Txn struct {
	ID       TxnID
	Snapshot CSN

	mgr    *Manager
	locks  []heldRow // in the order they were taken
	done   bool
	writes int

	// waitTimer is the reusable row-lock wait timer (one allocation per
	// Txn instead of one per contended wait).
	waitTimer *time.Timer

	// reads holds the rows Get and Scan decode into, made by the first of
	// them: the engine reads through GetRec and ScanRecs, and a statement's
	// transaction stays this small.
	reads *txnReads
}

// maxKeptLocks bounds the lock list a Txn keeps for its next transaction:
// a longer one, which a write of many scattered rows builds, is dropped.
const maxKeptLocks = 4096

// txnReads is where a transaction's Get and Scan decode: row is the row Get
// reuses, rows the array newRow carves Scan's rows from, and carved counts
// the rows carved.
type txnReads struct {
	row    storage.Row
	rows   []sqlmini.Value
	carved int
}

// getRow returns the row t's Gets decode into, w values wide.
func (t *Txn) getRow(w int) storage.Row {
	if t.reads == nil {
		t.reads = new(txnReads)
	}
	r := t.reads
	r.row = slices.Grow(r.row[:0], w)[:w]
	return r.row
}

// newRow returns a row w values wide that is the caller's to keep. Rows are
// carved from arrays allocated as needed, each as many rows as were carved
// before it, up to 64, and never reused: a scan of n rows allocates about
// log n + n/64 times.
func (t *Txn) newRow(w int) storage.Row {
	if t.reads == nil {
		t.reads = new(txnReads)
	}
	r := t.reads
	if len(r.rows) < w {
		r.rows = make([]sqlmini.Value, min(max(r.carved, 1), 64)*w)
	}
	row := r.rows[:w:w]
	r.rows = r.rows[w:]
	r.carved++
	return row
}

// Begin starts a transaction, taking its snapshot now. Call it at the
// transaction's first operation, not at BEGIN, to match the snapshot
// creation rule of Sec 3.1.
//
// The snapshot is read under the stripe lock so registration is atomic
// with respect to Horizon's stripe scan: a transaction is either visible
// to the scan, or its snapshot is at least the watermark the scan started
// from — either way the horizon never passes a snapshot that still needs
// a pruned state.
func (m *Manager) Begin() *Txn {
	t := new(Txn)
	m.BeginIn(t)
	return t
}

// BeginIn is Begin starting the transaction in t, which is new or done: t
// keeps its lock list's array, wait timer and read rows from the
// transaction before, and nothing else.
func (m *Manager) BeginIn(t *Txn) {
	invariant.Assert(t.mgr == nil || t.done, "mvcc: begin over an open transaction")
	id := TxnID(m.nextTxn.Add(1))
	s := m.stripe(id)
	s.mu.Lock()
	snap := CSN(m.lastCSN.Load())
	s.states[id] = txnState{status: StatusActive, snap: snap}
	s.mu.Unlock()
	locks := t.locks
	if cap(locks) > maxKeptLocks {
		locks = nil
	}
	clear(locks)
	*t = Txn{ID: id, Snapshot: snap, mgr: m, locks: locks[:0], waitTimer: t.waitTimer, reads: t.reads}
}

// statusOf reports the state of a transaction. Unknown IDs report
// StatusAborted so stray versions stay invisible — which is also why a
// committed writer's state can only be dropped after its versions are
// frozen. FrozenTxn reports committed at CSN 0 (visible to any snapshot).
func (m *Manager) statusOf(id TxnID) (Status, CSN) {
	if id == FrozenTxn {
		return StatusCommitted, 0
	}
	s := m.stripe(id)
	s.mu.RLock()
	st, ok := s.states[id]
	if !ok {
		s.mu.RUnlock()
		return StatusAborted, 0
	}
	status, csn := st.status, st.csn
	s.mu.RUnlock()
	return status, csn
}

// LastCSN returns the latest assigned commit sequence number.
func (m *Manager) LastCSN() CSN {
	return CSN(m.lastCSN.Load())
}

// StateCount reports how many txnState entries are live across all
// stripes (regression guard: eager pruning keeps this bounded).
func (m *Manager) StateCount() int {
	n := 0
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.RLock()
		n += len(s.states)
		s.mu.RUnlock()
	}
	return n
}

// PendingFreezes reports how many committed writers are queued behind the
// snapshot horizon (test and observability hook).
func (m *Manager) PendingFreezes() int {
	m.pruneMu.Lock()
	defer m.pruneMu.Unlock()
	return len(m.pending.txns)
}

// Commit makes t's effects visible: it assigns the next CSN, flips the
// status, and releases t's row locks (waking first-updater-wins waiters).
// The caller is responsible for making the commit durable (WAL) first.
func (t *Txn) Commit() (CSN, error) {
	if t.done {
		return 0, ErrTxnDone
	}
	t.done = true
	t.stopWaitTimer()
	m := t.mgr
	s := m.stripe(t.ID)

	if t.writes == 0 {
		// Read-only: no version anywhere references t.ID, so the state
		// can be dropped immediately — unknown IDs never reach statusOf
		// through a version, and the horizon only rises.
		m.csnMu.Lock()
		csn := CSN(m.lastCSN.Load()) + 1
		s.mu.Lock()
		st, ok := s.states[t.ID]
		invariant.Assert(ok && st.status == StatusActive, "mvcc: commit of a non-active transaction")
		delete(s.states, t.ID)
		s.mu.Unlock()
		m.lastCSN.Store(uint64(csn))
		m.csnMu.Unlock()
		return csn, nil
	}

	m.csnMu.Lock()
	csn := CSN(m.lastCSN.Load()) + 1
	s.mu.Lock()
	st, ok := s.states[t.ID]
	invariant.Assert(ok && st.status == StatusActive, "mvcc: commit of a non-active transaction")
	invariant.Assertf(csn > t.Snapshot, "mvcc: CSN %d not beyond snapshot %d", csn, t.Snapshot)
	st.status = StatusCommitted
	st.csn = csn
	s.states[t.ID] = st
	s.mu.Unlock()
	// Publish the watermark only after the status flip above: a snapshot
	// that includes csn must observe the state as committed.
	m.lastCSN.Store(uint64(csn))
	m.csnMu.Unlock()

	t.releaseLocks()
	m.enqueueFreeze(pendingFreeze{id: t.ID, csn: csn}, t.locks)
	return csn, nil
}

// Abort rolls t back: its versions are physically removed (they were never
// visible to anyone else) and its state dropped — unknown IDs already
// report StatusAborted, so eager removal preserves visibility semantics.
func (t *Txn) Abort() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	t.stopWaitTimer()
	m := t.mgr
	s := m.stripe(t.ID)
	s.mu.Lock()
	st, ok := s.states[t.ID]
	invariant.Assert(ok && st.status == StatusActive, "mvcc: abort of a non-active transaction")
	delete(s.states, t.ID)
	s.mu.Unlock()
	// Undo before waking waiters so they recheck against clean chains.
	for _, h := range t.locks {
		h.chains(func(ch *rowChain) { h.tb.undo(ch, t.ID) })
	}
	t.releaseLocks()
	return nil
}

// enqueueFreeze queues a committed writer, a copy of the row locks it held
// with it, for state pruning, and runs a prune pass once enough have
// accumulated.
func (m *Manager) enqueueFreeze(p pendingFreeze, held []heldRow) {
	m.pruneMu.Lock()
	m.pending.add(p, held)
	m.sincePrune++
	ready := m.sincePrune >= pruneBatch
	m.pruneMu.Unlock()
	if ready {
		m.PruneStates()
	}
}

// PruneStates freezes every queued committed writer whose CSN is at or
// below the current snapshot horizon and drops its txnState, returning
// how many dead versions the freezes removed. Commit calls it
// automatically every pruneBatch writers; vacuum calls it so an explicit
// VACUUM also empties the queue (and counts the removals in its tag).
func (m *Manager) PruneStates() int {
	m.pruneMu.Lock()
	work := m.pending
	m.pending = freezeQueue{}
	m.sincePrune = 0
	m.pruneMu.Unlock()

	pruned := 0
	// Filter in place: entries still above the horizon compact to the
	// front of work, which then becomes the queue again — the backlog
	// arrays are recycled across passes instead of reallocated, even when
	// the pass found nothing to do.
	kept := freezeQueue{work.txns[:0], work.arena[:0]}
	var shrunk []*Table // tables the pass removed versions from
	if len(work.txns) > 0 {
		h := m.Horizon()
		off := 0
		for _, p := range work.txns {
			held := work.arena[off : off+p.n]
			off += p.n
			if p.csn > h {
				kept.add(p, held)
				continue
			}
			pruned += m.freeze(p.id, held, &shrunk)
		}
	}
	clear(work.arena[len(kept.arena):]) // drop block refs from the recycled tail
	m.pruneMu.Lock()
	// Arrivals during the pass keep their order.
	kept.txns = append(kept.txns, m.pending.txns...)
	kept.arena = append(kept.arena, m.pending.arena...)
	m.pending = kept
	m.pruneMu.Unlock()
	for _, tb := range shrunk {
		tb.compactIfSparse()
	}
	return pruned
}

// freeze rewrites every version reference to id, a writer that committed
// at or below the horizon holding the row locks held — xmin becomes
// FrozenTxn, versions id superseded (xmax == id) are removed outright
// (every current and future snapshot sees the supersession) — then drops
// id's txnState. Returns the number of dead versions removed, and adds the
// tables they were removed from to *shrunk.
func (m *Manager) freeze(id TxnID, held []heldRow, shrunk *[]*Table) int {
	removed := 0
	for _, h := range held {
		h.chains(func(ch *rowChain) {
			ch.mu.Lock()
			vs := h.tb.versions(ch)
			kept := vs[:0]
			for _, v := range vs {
				if v.xmax == id {
					removed++
					h.tb.drop(v.ref)
					if !slices.Contains(*shrunk, h.tb) {
						*shrunk = append(*shrunk, h.tb)
					}
					continue // dead for every snapshot ≥ horizon
				}
				if v.xmin == id {
					v.xmin = FrozenTxn
				}
				kept = append(kept, v)
			}
			h.tb.setVersions(ch, kept)
			ch.mu.Unlock()
		})
	}
	s := m.stripe(id)
	s.mu.Lock()
	delete(s.states, id)
	s.mu.Unlock()
	return removed
}

// Done reports whether the transaction has committed or aborted.
func (t *Txn) Done() bool { return t.done }

// IsUpdate reports whether t performed any write.
func (t *Txn) IsUpdate() bool { return t.writes > 0 }

// hold adds to t's list the row locks of the slots in mask of tb's block b:
// to its last entry, when that is b's and mask's slots are all above the
// entry's, so that walking the list in order still walks the locks in the
// order they were taken.
func (t *Txn) hold(tb *Table, b *chainBlock, mask uint64) {
	if n := len(t.locks); n > 0 {
		if h := &t.locks[n-1]; h.block == b && h.mask < mask&-mask {
			h.mask |= mask
			return
		}
	}
	t.locks = append(t.locks, heldRow{tb: tb, block: b, mask: mask})
}

// releaseLocks releases t's row locks, waking their waiters. t keeps its
// list (Commit queues a copy of it for freezing).
func (t *Txn) releaseLocks() {
	for _, h := range t.locks {
		h.chains(func(ch *rowChain) { h.tb.unlock(ch, t.ID) })
	}
}

func (t *Txn) lockTimeout() time.Duration {
	if t.mgr.LockTimeout > 0 {
		return t.mgr.LockTimeout
	}
	return 2 * time.Second
}

// waitTimerFor arms the reusable per-transaction timer for one row-lock
// wait and returns its channel. The timer is stopped-and-drained between
// uses, so the channel never holds a stale tick.
func (t *Txn) waitTimerFor(d time.Duration) <-chan time.Time {
	if t.waitTimer == nil {
		t.waitTimer = time.NewTimer(d)
		return t.waitTimer.C
	}
	if !t.waitTimer.Stop() {
		select {
		case <-t.waitTimer.C:
		default:
		}
	}
	t.waitTimer.Reset(d)
	return t.waitTimer.C
}

// stopWaitTimer parks the reusable timer at transaction end.
func (t *Txn) stopWaitTimer() {
	if t.waitTimer != nil {
		t.waitTimer.Stop()
	}
}

// visible implements the SI visibility rule for one version.
func (t *Txn) visible(v *version) bool {
	invariant.Assert(v.xmin != 0, "mvcc: version without a creator transaction")
	// Creator check.
	if v.xmin == t.ID {
		// Own write — visible unless deleted by self.
		return v.xmax != t.ID
	}
	st, csn := t.mgr.statusOf(v.xmin)
	if st != StatusCommitted || csn > t.Snapshot {
		return false
	}
	// Deleter check.
	if v.xmax == 0 {
		return true
	}
	if v.xmax == t.ID {
		return false
	}
	dst, dcsn := t.mgr.statusOf(v.xmax)
	if dst == StatusCommitted && dcsn <= t.Snapshot {
		return false
	}
	return true
}

// String aids debugging.
func (t *Txn) String() string {
	return fmt.Sprintf("txn(%d snap=%d writes=%d done=%v)", t.ID, t.Snapshot, t.writes, t.done)
}
