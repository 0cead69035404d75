package mvcc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"madeus/internal/storage"
)

func chainLen(tb *Table, k int64) int {
	ch := tb.chain(key(k), false)
	if ch == nil {
		return 0
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return len(tb.versions(ch))
}

func TestVacuumRemovesSupersededVersions(t *testing.T) {
	m, tb := testTable(t)
	t0 := m.Begin()
	mustInsert(t, tb, t0, 1, 0)
	mustCommit(t, t0)
	for i := int64(1); i <= 5; i++ {
		w := m.Begin()
		if ok, err := tb.Update(w, key(1), row(1, i)); err != nil || !ok {
			t.Fatal(err)
		}
		mustCommit(t, w)
	}
	if got := chainLen(tb, 1); got != 6 {
		t.Fatalf("chain has %d versions before vacuum, want 6", got)
	}
	removed := tb.Vacuum(m.Horizon())
	if removed != 5 {
		t.Errorf("removed %d, want 5", removed)
	}
	if got := chainLen(tb, 1); got != 1 {
		t.Errorf("chain has %d versions after vacuum, want 1", got)
	}
	// The survivor is the latest value.
	if r := tb.Get(m.Begin(), key(1)); r == nil || r[1].Int != 5 {
		t.Errorf("visible row after vacuum: %v", r)
	}
}

func TestVacuumRemovesAbortedVersions(t *testing.T) {
	m, tb := testTable(t)
	a := m.Begin()
	mustInsert(t, tb, a, 1, 1)
	a.Abort()
	// Abort undoes its own versions eagerly now, so the chain is already
	// clean and vacuum has nothing left to collect.
	if got := chainLen(tb, 1); got != 0 {
		t.Errorf("chain has %d versions after abort, want 0 (eager undo)", got)
	}
	if removed := tb.Vacuum(m.Horizon()); removed != 0 {
		t.Errorf("removed %d, want 0", removed)
	}
	// Re-insert works afterwards.
	b := m.Begin()
	mustInsert(t, tb, b, 1, 2)
	mustCommit(t, b)
	if r := tb.Get(m.Begin(), key(1)); r == nil || r[1].Int != 2 {
		t.Errorf("got %v", r)
	}
}

func TestVacuumRespectsActiveSnapshotHorizon(t *testing.T) {
	m, tb := testTable(t)
	t0 := m.Begin()
	mustInsert(t, tb, t0, 1, 10)
	mustCommit(t, t0)

	reader := m.Begin()
	if r := tb.Get(reader, key(1)); r == nil || r[1].Int != 10 {
		t.Fatal("setup")
	}

	w := m.Begin()
	if ok, err := tb.Update(w, key(1), row(1, 20)); err != nil || !ok {
		t.Fatal(err)
	}
	mustCommit(t, w)

	// The old version is superseded AFTER reader's snapshot; the horizon
	// must protect it.
	tb.Vacuum(m.Horizon())
	if r := tb.Get(reader, key(1)); r == nil || r[1].Int != 10 {
		t.Fatalf("active snapshot lost its version: %v", r)
	}
	if _, err := reader.Commit(); err != nil {
		t.Fatal(err)
	}

	// Once the reader is gone, the horizon advances and the version dies.
	if removed := tb.Vacuum(m.Horizon()); removed != 1 {
		t.Errorf("removed %d after reader finished, want 1", removed)
	}
	if r := tb.Get(m.Begin(), key(1)); r == nil || r[1].Int != 20 {
		t.Errorf("got %v", r)
	}
}

func TestVacuumKeepsUncommittedWork(t *testing.T) {
	m, tb := testTable(t)
	w := m.Begin()
	mustInsert(t, tb, w, 1, 1)
	if removed := tb.Vacuum(m.Horizon()); removed != 0 {
		t.Errorf("removed %d versions of an active txn", removed)
	}
	mustCommit(t, w)
	if r := tb.Get(m.Begin(), key(1)); r == nil {
		t.Error("row lost")
	}
}

func TestHorizonTracksOldestActive(t *testing.T) {
	m, tb := testTable(t)
	_ = tb
	t0 := m.Begin()
	mustInsert(t, tb, t0, 1, 1)
	mustCommit(t, t0) // CSN 1
	old := m.Begin()  // snapshot 1
	t1 := m.Begin()
	mustInsert(t, tb, t1, 2, 2)
	mustCommit(t, t1) // CSN 2
	if h := m.Horizon(); h != 1 {
		t.Errorf("Horizon = %d, want 1 (old reader pins it)", h)
	}
	old.Abort()
	if h := m.Horizon(); h != 2 {
		t.Errorf("Horizon = %d, want 2", h)
	}
}

// TestPropertyVacuumPreservesVisibleState: after arbitrary committed
// updates and a vacuum, the visible state for a fresh snapshot is unchanged
// and the version count never grows.
func TestPropertyVacuumPreservesVisibleState(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, tb := quickTable(t)
		init := m.Begin()
		for k := int64(0); k < 5; k++ {
			if err := tb.Insert(init, row(k, 0)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := init.Commit(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			w := m.Begin()
			k := rng.Int63n(5)
			switch rng.Intn(3) {
			case 0:
				tb.Update(w, key(k), row(k, rng.Int63n(100))) //nolint:errcheck
			case 1:
				tb.Delete(w, key(k)) //nolint:errcheck
			default:
				tb.Insert(w, row(k, rng.Int63n(100))) //nolint:errcheck
			}
			if rng.Intn(4) == 0 {
				w.Abort()
			} else if _, err := w.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		before := snapshotState(m, tb)
		tb.Vacuum(m.Horizon())
		after := snapshotState(m, tb)
		if len(before) != len(after) {
			return false
		}
		for k, v := range before {
			if after[k] != v {
				return false
			}
		}
		// Idempotent: a second vacuum removes nothing.
		return tb.Vacuum(m.Horizon()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func snapshotState(m *Manager, tb *Table) map[int64]int64 {
	txn := m.Begin()
	defer txn.Commit()
	out := make(map[int64]int64)
	tb.Scan(txn, func(r storage.Row) bool {
		out[r[0].Int] = r[1].Int
		return true
	})
	return out
}
