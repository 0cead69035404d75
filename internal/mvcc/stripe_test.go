package mvcc

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"madeus/internal/sqlmini"
	"madeus/internal/storage"
)

// Tests for the striped MVCC layout (DESIGN.md §5i): eager txnState
// pruning, the contended-waiter wait path, cross-shard snapshot
// consistency, and a race stress over Begin/Commit/scan/vacuum.

func testTableStriped(t *testing.T, stripes int) (*Manager, *Table) {
	t.Helper()
	s, err := storage.NewSchema("kv", []storage.Column{
		{Name: "k", Type: sqlmini.KindInt, PrimaryKey: true},
		{Name: "v", Type: sqlmini.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManagerStriped(stripes)
	return m, NewTable(s, m)
}

// TestStateCountBoundedUnder100kShortTxns is the regression for the
// finished-state leak: before eager pruning, every committed or aborted
// transaction left a txnState in the manager forever (only bounded by an
// explicit VACUUM). 100k short transactions must leave the map bounded by
// the prune batch, not the transaction count.
func TestStateCountBoundedUnder100kShortTxns(t *testing.T) {
	m, tb := testTable(t)
	const txns = 100_000
	for i := 0; i < txns; i++ {
		w := m.Begin()
		k := int64(i % 128)
		if err := tb.Insert(w, row(k, int64(i))); err != nil {
			if ok, uerr := tb.Update(w, key(k), row(k, int64(i))); uerr != nil || !ok {
				t.Fatalf("txn %d: insert %v, update %v ok=%v", i, err, uerr, ok)
			}
		}
		switch i % 10 {
		case 9:
			if err := w.Abort(); err != nil {
				t.Fatal(err)
			}
		default:
			mustCommit(t, w)
		}
	}
	// Bound: the pending freeze batch plus a small constant. Before the
	// fix this was ~90k (every committed writer retained).
	if n := m.StateCount(); n > 4*pruneBatch {
		t.Fatalf("StateCount = %d after %d short txns, want ≤ %d", n, txns, 4*pruneBatch)
	}
	// Visibility survives freezing: the latest committed value per key
	// must still be readable through FrozenTxn creators.
	r := m.Begin()
	defer r.Abort()
	if got := tb.Len(r); got != 128 {
		t.Fatalf("visible rows = %d, want 128", got)
	}
}

// TestReadOnlyTxnStateDroppedImmediately: read-only transactions never
// put their ID in any version, so Commit and Abort drop their state
// without queueing for the horizon.
func TestReadOnlyTxnStateDroppedImmediately(t *testing.T) {
	m, tb := testTable(t)
	w := m.Begin()
	mustInsert(t, tb, w, 1, 1)
	mustCommit(t, w)

	base := m.StateCount()
	for i := 0; i < 100; i++ {
		r := m.Begin()
		if got := tb.Get(r, key(1)); got == nil {
			t.Fatal("committed row not visible")
		}
		if i%2 == 0 {
			mustCommit(t, r)
		} else if err := r.Abort(); err != nil {
			t.Fatal(err)
		}
		if n := m.StateCount(); n != base {
			t.Fatalf("StateCount = %d after read-only txn %d, want %d", n, i, base)
		}
	}
}

// TestContendedWaiterProceedsAfterAbort is the regression for the row-lock
// wait path: a waiter blocked on a holder that aborts must be woken and
// proceed (the holder's undo ran), not ride its timer into ErrLockTimeout.
func TestContendedWaiterProceedsAfterAbort(t *testing.T) {
	m, tb := testTable(t)
	m.LockTimeout = 10 * time.Second // a missed wakeup would stall the test

	seed := m.Begin()
	mustInsert(t, tb, seed, 1, 0)
	mustCommit(t, seed)

	holder := m.Begin()
	if ok, err := tb.Update(holder, key(1), row(1, 1)); err != nil || !ok {
		t.Fatalf("holder update: %v ok=%v", err, ok)
	}

	waiterDone := make(chan error, 1)
	waiterStarted := make(chan struct{})
	go func() {
		w := m.Begin()
		close(waiterStarted)
		ok, err := tb.Update(w, key(1), row(1, 2))
		if err != nil {
			waiterDone <- err
			return
		}
		if !ok {
			waiterDone <- errors.New("row vanished for waiter")
			return
		}
		_, err = w.Commit()
		waiterDone <- err
	}()

	<-waiterStarted
	time.Sleep(20 * time.Millisecond) // let the waiter block on the row lock
	if err := holder.Abort(); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-waiterDone:
		if err != nil {
			t.Fatalf("waiter after holder abort: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter did not proceed after holder abort (missed wakeup?)")
	}

	r := m.Begin()
	defer r.Abort()
	if got := tb.Get(r, key(1)); got == nil || got[1].Int != 2 {
		t.Fatalf("row after waiter commit = %v, want v=2", got)
	}
}

// TestContendedWaiterTimerReuse drives one transaction through many
// contended waits that each end in a wakeup, then one that times out: the
// reusable timer must not deliver a stale tick from an earlier wait (which
// would surface as a spurious ErrLockTimeout).
func TestContendedWaiterTimerReuse(t *testing.T) {
	m, tb := testTable(t)
	m.LockTimeout = 50 * time.Millisecond

	seed := m.Begin()
	for k := int64(0); k < 8; k++ {
		mustInsert(t, tb, seed, k, 0)
	}
	mustCommit(t, seed)

	w := m.Begin()
	for k := int64(0); k < 8; k++ {
		holder := m.Begin()
		if ok, err := tb.Update(holder, key(k), row(k, 1)); err != nil || !ok {
			t.Fatalf("holder: %v ok=%v", err, ok)
		}
		go func() {
			time.Sleep(5 * time.Millisecond)
			holder.Abort()
		}()
		// Each wait arms w's reusable timer; the abort wakes us well
		// before it fires, leaving a pending tick to be drained.
		if ok, err := tb.Update(w, key(k), row(k, 2)); err != nil || !ok {
			t.Fatalf("waiter on key %d: %v ok=%v", k, err, ok)
		}
	}
	mustCommit(t, w)

	// Now a wait that must genuinely time out still does.
	holder := m.Begin()
	if ok, err := tb.Update(holder, key(0), row(0, 9)); err != nil || !ok {
		t.Fatalf("holder: %v ok=%v", err, ok)
	}
	late := m.Begin()
	if _, err := tb.Update(late, key(0), row(0, 10)); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("want ErrLockTimeout, got %v", err)
	}
	holder.Abort()
	late.Abort()
}

// TestCrossShardSnapshotCut: writers update one row per stripe inside a
// single transaction; readers must always see a consistent cut (all keys
// at the same generation), no matter how the stripes interleave.
func TestCrossShardSnapshotCut(t *testing.T) {
	m, tb := testTableStriped(t, 16)
	const keys = 64 // spread across all 16 stripes

	seed := m.Begin()
	for k := int64(0); k < keys; k++ {
		mustInsert(t, tb, seed, k, 0)
	}
	mustCommit(t, seed)

	stop := make(chan struct{})
	var writerErr atomic.Value
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for gen := int64(1); ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			w := m.Begin()
			for k := int64(0); k < keys; k++ {
				if ok, err := tb.Update(w, key(k), row(k, gen)); err != nil || !ok {
					writerErr.Store(fmt.Errorf("gen %d key %d: %v ok=%v", gen, k, err, ok))
					w.Abort()
					return
				}
			}
			if _, err := w.Commit(); err != nil {
				writerErr.Store(err)
				return
			}
		}
	}()

	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		r := m.Begin()
		var gens []int64
		for k := int64(0); k < keys; k++ {
			got := tb.Get(r, key(k))
			if got == nil {
				t.Fatalf("key %d invisible to reader", k)
			}
			gens = append(gens, got[1].Int)
		}
		r.Abort()
		for i := 1; i < len(gens); i++ {
			if gens[i] != gens[0] {
				t.Fatalf("torn snapshot: key 0 at gen %d, key %d at gen %d", gens[0], i, gens[i])
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := writerErr.Load(); err != nil {
		t.Fatalf("writer: %v", err)
	}
}

// TestStripedRaceStress mixes Begin/Commit/Abort, point reads, full
// scans, and vacuum across goroutines. It asserts nothing beyond "no
// race, no deadlock, no invariant failure" — the race detector and the
// invariants build are the oracle.
func TestStripedRaceStress(t *testing.T) {
	m, tb := testTableStriped(t, 8)
	m.LockTimeout = 2 * time.Second
	const keys = 32

	seed := m.Begin()
	for k := int64(0); k < keys; k++ {
		mustInsert(t, tb, seed, k, 0)
	}
	mustCommit(t, seed)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writers.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := m.Begin()
				k := int64(rng.Intn(keys))
				_, err := tb.Update(w, key(k), row(k, rng.Int63()))
				if err != nil || rng.Intn(8) == 0 {
					w.Abort()
					continue
				}
				w.Commit()
			}
		}(g)
	}
	// Scanners.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r := m.Begin()
				n := tb.Len(r)
				if n != keys {
					// Deletes never run here; every key stays visible.
					panic(fmt.Sprintf("scan saw %d rows, want %d", n, keys))
				}
				r.Abort()
			}
		}()
	}
	// Vacuum + explicit prune.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tb.Vacuum(m.Horizon())
			m.PruneStates()
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()

	// With no transaction active the horizon is the last CSN, so one
	// prune pass drains everything still queued.
	m.PruneStates()
	if n := m.StateCount(); n != 0 {
		t.Fatalf("StateCount = %d after quiesced prune, want 0", n)
	}
}

// TestStripeKnobs pins the stripe plumbing: counts round up to powers of
// two, tables inherit the manager's count, and a single stripe works.
func TestStripeKnobs(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {16, 16}, {17, 32},
	} {
		if got := ceilPow2(tc.in); got != tc.want {
			t.Errorf("ceilPow2(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	m, tb := testTableStriped(t, 1)
	if len(m.stripes) != 1 || tb.Stripes() != 1 {
		t.Fatalf("stripes = %d/%d, want 1/1", len(m.stripes), tb.Stripes())
	}
	w := m.Begin()
	mustInsert(t, tb, w, 7, 7)
	mustCommit(t, w)
	r := m.Begin()
	defer r.Abort()
	if got := tb.Get(r, key(7)); got == nil || got[1].Int != 7 {
		t.Fatalf("unsharded table read = %v", got)
	}
}
