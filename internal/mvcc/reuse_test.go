package mvcc

import (
	"errors"
	"math/bits"
	"slices"
	"testing"
	"time"
)

// heldKeys lists the keys of the row locks on t's list, in list order.
func heldKeys(t *Txn) []int64 {
	var keys []int64
	for _, h := range t.locks {
		for m := h.mask; m != 0; m &= m - 1 {
			keys = append(keys, h.block.key(bits.TrailingZeros64(m)).Int)
		}
	}
	return keys
}

// versionsOf returns a copy of the versions of pk's chain.
func versionsOf(tb *Table, pk int64) []version {
	ch := tb.chain(key(pk), false)
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return slices.Clone(tb.versions(ch))
}

// lockOwner returns the transaction holding pk's row lock, or 0.
func lockOwner(tb *Table, pk int64) TxnID {
	ch := tb.chain(key(pk), false)
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.lockOwner
}

// waitedFor reports whether a transaction waits for pk's row lock.
func waitedFor(tb *Table, pk int64) bool {
	ch := tb.chain(key(pk), false)
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.ext != 0 && len(tb.ext(ch).waiters) > 0
}

// seed commits rows 0..n-1, each v = 0, and freezes them.
func seed(t *testing.T, m *Manager, tb *Table, n int64) {
	t.Helper()
	load := m.Begin()
	for k := int64(0); k < n; k++ {
		mustInsert(t, tb, load, k, 0)
	}
	mustCommit(t, load)
	m.PruneStates()
}

func mustUpdate(t *testing.T, tb *Table, txn *Txn, k, v int64) {
	t.Helper()
	if ok, err := tb.Update(txn, key(k), row(k, v)); err != nil || !ok {
		t.Fatalf("Update of %d: %v, %v", k, ok, err)
	}
}

// TestReusedTxnKeepsItsOwnLocks: a Txn begun again after a commit holds only
// the row locks of its new transaction, while the freeze queue keeps its own
// copy of the committed one's. A prune pass then freezes exactly the first
// transaction's version, and the second's row locks and version stay as
// they were until it commits.
func TestReusedTxnKeepsItsOwnLocks(t *testing.T) {
	m, tb := testTable(t)
	seed(t, m, tb, 200)

	var txn Txn
	m.BeginIn(&txn)
	mustUpdate(t, tb, &txn, 3, 1)
	mustCommit(t, &txn)
	first := txn.ID

	m.BeginIn(&txn)
	if txn.ID == first || txn.Done() || txn.IsUpdate() {
		t.Fatalf("begun again: %v, want a new, open, read-only transaction", &txn)
	}
	mustUpdate(t, tb, &txn, 5, 2)   // 3's block, above it
	mustUpdate(t, tb, &txn, 100, 2) // another block
	if got := heldKeys(&txn); !slices.Equal(got, []int64{5, 100}) || len(txn.locks) != 2 {
		t.Fatalf("the reused Txn holds the locks of %v in %d entries, want [5 100] in 2", got, len(txn.locks))
	}

	if n := m.PendingFreezes(); n != 1 {
		t.Fatalf("%d writers queued for freezing, want 1", n)
	}
	m.PruneStates()
	if n := m.PendingFreezes(); n != 0 {
		t.Fatalf("%d writers queued after a prune pass, want 0", n)
	}
	if vs := versionsOf(tb, 3); len(vs) != 1 || vs[0].xmin != FrozenTxn {
		t.Fatalf("row 3 after the first transaction was frozen: %+v, want one frozen version", vs)
	}
	for _, k := range []int64{5, 100} {
		if owner := lockOwner(tb, k); owner != txn.ID {
			t.Fatalf("row %d is locked by %d, want the open transaction %d", k, owner, txn.ID)
		}
		if vs := versionsOf(tb, k); len(vs) != 2 || vs[1].xmin != txn.ID {
			t.Fatalf("row %d: %+v, want the open transaction's version last", k, vs)
		}
	}
	other := m.Begin()
	if got := tb.Get(other, key(5)); got[1].Int != 0 {
		t.Fatalf("a concurrent reader sees row 5 = %v, want the committed 0", got[1])
	}
	other.Abort()

	mustCommit(t, &txn)
	r := m.Begin()
	for k, want := range map[int64]int64{3: 1, 5: 2, 100: 2, 4: 0} {
		if got := tb.Get(r, key(k)); got == nil || got[1].Int != want {
			t.Errorf("row %d reads %v, want v = %d", k, got, want)
		}
	}
	r.Commit()
}

// TestReusedTxnAfterAbort: a Txn begun again after an abort carries no row
// lock, no write count and nothing to undo of the aborted transaction: the
// aborted rows are free and as they were, and a read-only transaction in the
// Txn commits as one.
func TestReusedTxnAfterAbort(t *testing.T) {
	m, tb := testTable(t)
	seed(t, m, tb, 10)

	var txn Txn
	m.BeginIn(&txn)
	mustUpdate(t, tb, &txn, 3, 7)
	mustInsert(t, tb, &txn, 500, 7)
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}

	m.BeginIn(&txn)
	if txn.IsUpdate() || len(heldKeys(&txn)) != 0 {
		t.Fatalf("begun again after an abort: %v holding %v, want no write and no lock", &txn, heldKeys(&txn))
	}
	if got := tb.Get(&txn, key(3)); got == nil || got[1].Int != 0 {
		t.Fatalf("row 3 reads %v after the abort, want v = 0", got)
	}
	pending := m.PendingFreezes()
	mustCommit(t, &txn)
	if n := m.PendingFreezes(); n != pending {
		t.Fatalf("a read-only commit queued a freeze (%d, was %d)", n, pending)
	}

	m.BeginIn(&txn)
	mustUpdate(t, tb, &txn, 4, 8)
	if got := heldKeys(&txn); !slices.Equal(got, []int64{4}) {
		t.Fatalf("the reused Txn holds the locks of %v, want [4]", got)
	}
	for _, k := range []int64{3, 500} {
		if ch := tb.chain(key(k), false); ch != nil {
			if owner := lockOwner(tb, k); owner != 0 {
				t.Fatalf("row %d is still locked by %d", k, owner)
			}
			if vs := versionsOf(tb, k); len(vs) > 1 || len(vs) == 1 && vs[0].xmax != 0 {
				t.Fatalf("row %d keeps the aborted transaction's trace: %+v", k, vs)
			}
		}
	}
	mustCommit(t, &txn)

	w := m.Begin()
	mustUpdate(t, tb, w, 3, 9) // free: no wait, no conflict
	mustCommit(t, w)
	r := m.Begin()
	if got := tb.Get(r, key(500)); got != nil {
		t.Errorf("the aborted insert of 500 is visible: %v", got)
	}
	for k, want := range map[int64]int64{3: 9, 4: 8} {
		if got := tb.Get(r, key(k)); got == nil || got[1].Int != want {
			t.Errorf("row %d reads %v, want v = %d", k, got, want)
		}
	}
	r.Commit()
}

// TestReusedTxnLockWait: the wait timer a Txn keeps across its transactions
// delivers no tick of an earlier wait. A reused Txn whose first transaction
// was woken from a wait times out in its second after its own full lock
// timeout, and one whose earlier wait timed out is woken in its next, not
// timed out at once.
func TestReusedTxnLockWait(t *testing.T) {
	m, tb := testTable(t)
	m.LockTimeout = 100 * time.Millisecond
	seed(t, m, tb, 3)

	// hold locks k for a new transaction, released by an abort after d (or
	// never, with d = 0); the returned func aborts it if still open.
	hold := func(k int64, d time.Duration) func() {
		h := m.Begin()
		mustUpdate(t, tb, h, k, -1)
		if d == 0 {
			return func() { h.Abort() }
		}
		go func() {
			for !waitedFor(tb, k) {
				time.Sleep(100 * time.Microsecond)
			}
			time.Sleep(d)
			h.Abort()
		}()
		return func() {}
	}

	var txn Txn
	m.BeginIn(&txn)
	hold(0, 5*time.Millisecond)
	mustUpdate(t, tb, &txn, 0, 1) // woken
	mustCommit(t, &txn)

	m.BeginIn(&txn)
	release := hold(1, 0)
	start := time.Now()
	if _, err := tb.Update(&txn, key(1), row(1, 1)); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("a wait on a lock never released: %v, want ErrLockTimeout", err)
	}
	if waited := time.Since(start); waited < m.LockTimeout {
		t.Fatalf("timed out after %v, want at least the lock timeout %v", waited, m.LockTimeout)
	}
	txn.Abort()
	release()

	m.BeginIn(&txn)
	hold(2, 5*time.Millisecond)
	mustUpdate(t, tb, &txn, 2, 1) // woken, not timed out by the last wait's tick
	mustCommit(t, &txn)
}
