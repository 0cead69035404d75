package mvcc

import (
	"errors"
	"sync"
	"testing"
	"time"

	"madeus/internal/sqlmini"
	"madeus/internal/storage"
)

func testTable(t *testing.T) (*Manager, *Table) {
	t.Helper()
	s, err := storage.NewSchema("kv", []storage.Column{
		{Name: "k", Type: sqlmini.KindInt, PrimaryKey: true},
		{Name: "v", Type: sqlmini.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager()
	return m, NewTable(s, m)
}

func row(k, v int64) storage.Row {
	return storage.Row{sqlmini.NewInt(k), sqlmini.NewInt(v)}
}

func key(k int64) sqlmini.Value { return sqlmini.NewInt(k) }

// awaitWaiter returns once a transaction waits for pk's row lock, read off
// the row's chain under its lock: a test that then releases the lock runs
// the wake-up path every time, where a sleep would let a late waiter find
// the lock already free.
func awaitWaiter(t *testing.T, tb *Table, pk sqlmini.Value) {
	t.Helper()
	ch := tb.chain(pk, false)
	if ch == nil {
		t.Fatalf("no chain for %v", pk)
	}
	for start := time.Now(); ; time.Sleep(100 * time.Microsecond) {
		ch.mu.Lock()
		waiting := ch.ext != 0 && len(tb.ext(ch).waiters) > 0
		ch.mu.Unlock()
		if waiting {
			return
		}
		if time.Since(start) > 5*time.Second {
			t.Fatalf("no transaction waits for the row lock of %v", pk)
		}
	}
}

func mustInsert(t *testing.T, tb *Table, txn *Txn, k, v int64) {
	t.Helper()
	if err := tb.Insert(txn, row(k, v)); err != nil {
		t.Fatal(err)
	}
}

func mustCommit(t *testing.T, txn *Txn) {
	t.Helper()
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertAndGetVisibleAfterCommit(t *testing.T) {
	m, tb := testTable(t)
	t1 := m.Begin()
	mustInsert(t, tb, t1, 1, 10)
	// Own write visible before commit.
	if r := tb.Get(t1, key(1)); r == nil || r[1].Int != 10 {
		t.Fatalf("own write not visible: %v", r)
	}
	// Not visible to a concurrent snapshot.
	t2 := m.Begin()
	if r := tb.Get(t2, key(1)); r != nil {
		t.Fatalf("uncommitted write leaked: %v", r)
	}
	mustCommit(t, t1)
	// Still not visible to t2's old snapshot (repeatable read).
	if r := tb.Get(t2, key(1)); r != nil {
		t.Fatalf("snapshot isolation violated: %v", r)
	}
	// Visible to a new snapshot.
	t3 := m.Begin()
	if r := tb.Get(t3, key(1)); r == nil || r[1].Int != 10 {
		t.Fatalf("committed write not visible: %v", r)
	}
}

func TestAbortedWritesInvisible(t *testing.T) {
	m, tb := testTable(t)
	t1 := m.Begin()
	mustInsert(t, tb, t1, 1, 10)
	if err := t1.Abort(); err != nil {
		t.Fatal(err)
	}
	t2 := m.Begin()
	if r := tb.Get(t2, key(1)); r != nil {
		t.Fatalf("aborted write visible: %v", r)
	}
	// Re-insert of the same key after an aborted insert must succeed.
	t3 := m.Begin()
	mustInsert(t, tb, t3, 1, 11)
	mustCommit(t, t3)
	t4 := m.Begin()
	if r := tb.Get(t4, key(1)); r == nil || r[1].Int != 11 {
		t.Fatalf("got %v", r)
	}
}

func TestUpdateCreatesNewVersionOldSnapshotSeesOld(t *testing.T) {
	m, tb := testTable(t)
	t1 := m.Begin()
	mustInsert(t, tb, t1, 1, 10)
	mustCommit(t, t1)

	reader := m.Begin() // snapshot before the update
	writer := m.Begin()
	ok, err := tb.Update(writer, key(1), row(1, 20))
	if err != nil || !ok {
		t.Fatalf("update: %v %v", ok, err)
	}
	mustCommit(t, writer)

	if r := tb.Get(reader, key(1)); r == nil || r[1].Int != 10 {
		t.Fatalf("old snapshot sees %v, want v=10", r)
	}
	fresh := m.Begin()
	if r := tb.Get(fresh, key(1)); r == nil || r[1].Int != 20 {
		t.Fatalf("new snapshot sees %v, want v=20", r)
	}
}

func TestDeleteVisibility(t *testing.T) {
	m, tb := testTable(t)
	t1 := m.Begin()
	mustInsert(t, tb, t1, 1, 10)
	mustCommit(t, t1)

	reader := m.Begin()
	deleter := m.Begin()
	ok, err := tb.Delete(deleter, key(1))
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	// Deleter no longer sees it; old reader still does.
	if r := tb.Get(deleter, key(1)); r != nil {
		t.Fatalf("deleter still sees %v", r)
	}
	if r := tb.Get(reader, key(1)); r == nil {
		t.Fatal("reader snapshot lost the row")
	}
	mustCommit(t, deleter)
	fresh := m.Begin()
	if r := tb.Get(fresh, key(1)); r != nil {
		t.Fatalf("deleted row visible: %v", r)
	}
}

func TestFirstUpdaterWinsCommittedWinner(t *testing.T) {
	m, tb := testTable(t)
	t0 := m.Begin()
	mustInsert(t, tb, t0, 1, 10)
	mustCommit(t, t0)

	a := m.Begin()
	b := m.Begin()
	if ok, err := tb.Update(a, key(1), row(1, 11)); err != nil || !ok {
		t.Fatalf("a update: %v %v", ok, err)
	}
	mustCommit(t, a)
	// b attempts the same row after a committed: immediate abort.
	if _, err := tb.Update(b, key(1), row(1, 12)); !errors.Is(err, ErrSerialization) {
		t.Fatalf("got %v, want ErrSerialization", err)
	}
}

func TestFirstUpdaterWinsActiveWinnerCommits(t *testing.T) {
	m, tb := testTable(t)
	t0 := m.Begin()
	mustInsert(t, tb, t0, 1, 10)
	mustCommit(t, t0)

	a := m.Begin()
	b := m.Begin()
	if ok, err := tb.Update(a, key(1), row(1, 11)); err != nil || !ok {
		t.Fatalf("a update: %v %v", ok, err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := tb.Update(b, key(1), row(1, 12)) // blocks on a's lock
		errc <- err
	}()
	awaitWaiter(t, tb, key(1))
	mustCommit(t, a)
	if err := <-errc; !errors.Is(err, ErrSerialization) {
		t.Fatalf("got %v, want ErrSerialization", err)
	}
}

func TestFirstUpdaterWinsActiveWinnerAborts(t *testing.T) {
	m, tb := testTable(t)
	t0 := m.Begin()
	mustInsert(t, tb, t0, 1, 10)
	mustCommit(t, t0)

	a := m.Begin()
	b := m.Begin()
	if ok, err := tb.Update(a, key(1), row(1, 11)); err != nil || !ok {
		t.Fatalf("a update: %v %v", ok, err)
	}
	type res struct {
		ok  bool
		err error
	}
	resc := make(chan res, 1)
	go func() {
		ok, err := tb.Update(b, key(1), row(1, 12))
		resc <- res{ok, err}
	}()
	awaitWaiter(t, tb, key(1))
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	r := <-resc
	if r.err != nil || !r.ok {
		t.Fatalf("b should proceed after a aborts: %v %v", r.ok, r.err)
	}
	mustCommit(t, b)
	fresh := m.Begin()
	if got := tb.Get(fresh, key(1)); got == nil || got[1].Int != 12 {
		t.Fatalf("got %v, want v=12", got)
	}
}

func TestLockWaitTimeout(t *testing.T) {
	m, tb := testTable(t)
	m.LockTimeout = 30 * time.Millisecond
	t0 := m.Begin()
	mustInsert(t, tb, t0, 1, 10)
	mustCommit(t, t0)

	a := m.Begin()
	if ok, err := tb.Update(a, key(1), row(1, 11)); err != nil || !ok {
		t.Fatal(err)
	}
	b := m.Begin()
	start := time.Now()
	_, err := tb.Update(b, key(1), row(1, 12))
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("got %v, want ErrLockTimeout", err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Error("timed out too early")
	}
	mustCommit(t, a)
}

func TestUniqueViolation(t *testing.T) {
	m, tb := testTable(t)
	t0 := m.Begin()
	mustInsert(t, tb, t0, 1, 10)
	mustCommit(t, t0)

	t1 := m.Begin()
	if err := tb.Insert(t1, row(1, 99)); !errors.Is(err, ErrUniqueViolation) {
		t.Fatalf("got %v, want ErrUniqueViolation", err)
	}
}

func TestConcurrentInsertSameKeyFirstUpdaterWins(t *testing.T) {
	m, tb := testTable(t)
	a := m.Begin()
	b := m.Begin()
	if err := tb.Insert(a, row(1, 1)); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- tb.Insert(b, row(1, 2)) }()
	awaitWaiter(t, tb, key(1))
	mustCommit(t, a)
	if err := <-errc; !errors.Is(err, ErrUniqueViolation) {
		t.Fatalf("got %v, want ErrUniqueViolation", err)
	}
}

func TestUpdateOwnWriteIntraWW(t *testing.T) {
	m, tb := testTable(t)
	t1 := m.Begin()
	mustInsert(t, tb, t1, 1, 1)
	for i := int64(2); i <= 5; i++ {
		ok, err := tb.Update(t1, key(1), row(1, i))
		if err != nil || !ok {
			t.Fatalf("update %d: %v %v", i, ok, err)
		}
	}
	mustCommit(t, t1)
	fresh := m.Begin()
	if r := tb.Get(fresh, key(1)); r == nil || r[1].Int != 5 {
		t.Fatalf("got %v, want v=5 (last intra-txn write wins)", r)
	}
}

func TestUpdateMissingRow(t *testing.T) {
	m, tb := testTable(t)
	t1 := m.Begin()
	ok, err := tb.Update(t1, key(404), row(404, 1))
	if err != nil || ok {
		t.Fatalf("got %v %v, want false nil", ok, err)
	}
	ok, err = tb.Delete(t1, key(404))
	if err != nil || ok {
		t.Fatalf("delete: got %v %v, want false nil", ok, err)
	}
}

func TestPKImmutable(t *testing.T) {
	m, tb := testTable(t)
	t1 := m.Begin()
	mustInsert(t, tb, t1, 1, 1)
	mustCommit(t, t1)
	t2 := m.Begin()
	if _, err := tb.Update(t2, key(1), row(2, 1)); !errors.Is(err, ErrPKImmutable) {
		t.Fatalf("got %v, want ErrPKImmutable", err)
	}
}

func TestScanOrderAndSnapshotStability(t *testing.T) {
	m, tb := testTable(t)
	t1 := m.Begin()
	for _, k := range []int64{5, 1, 3} {
		mustInsert(t, tb, t1, k, k*10)
	}
	mustCommit(t, t1)

	reader := m.Begin()
	// Concurrent committed insert must not appear in reader's scan.
	w := m.Begin()
	mustInsert(t, tb, w, 2, 20)
	mustCommit(t, w)

	var keys []int64
	tb.Scan(reader, func(r storage.Row) bool {
		keys = append(keys, r[0].Int)
		return true
	})
	want := []int64{1, 3, 5}
	if len(keys) != len(want) {
		t.Fatalf("scan keys %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("scan keys %v, want %v (pk order)", keys, want)
		}
	}
	if n := tb.Len(m.Begin()); n != 4 {
		t.Fatalf("Len = %d, want 4", n)
	}
}

func TestScanEarlyStop(t *testing.T) {
	m, tb := testTable(t)
	t1 := m.Begin()
	for k := int64(1); k <= 10; k++ {
		mustInsert(t, tb, t1, k, k)
	}
	mustCommit(t, t1)
	n := 0
	tb.Scan(m.Begin(), func(storage.Row) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("visited %d rows, want 3", n)
	}
}

func TestTxnDoneErrors(t *testing.T) {
	m, tb := testTable(t)
	t1 := m.Begin()
	mustCommit(t, t1)
	if err := tb.Insert(t1, row(1, 1)); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("insert after commit: %v", err)
	}
	if _, err := t1.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit: %v", err)
	}
	if err := t1.Abort(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("abort after commit: %v", err)
	}
}

func TestIsUpdate(t *testing.T) {
	m, tb := testTable(t)
	t1 := m.Begin()
	if t1.IsUpdate() {
		t.Error("fresh txn is update")
	}
	tb.Get(t1, key(1))
	if t1.IsUpdate() {
		t.Error("read made txn update")
	}
	mustInsert(t, tb, t1, 1, 1)
	if !t1.IsUpdate() {
		t.Error("insert did not mark update")
	}
}

// TestNoLostUpdateUnderContention hammers one row with concurrent
// increments. Under SI + first-updater-wins, every successful increment must
// be reflected: final value == number of successful commits.
func TestNoLostUpdateUnderContention(t *testing.T) {
	m, tb := testTable(t)
	m.LockTimeout = 2 * time.Second
	t0 := m.Begin()
	mustInsert(t, tb, t0, 1, 0)
	mustCommit(t, t0)

	const workers = 8
	const attempts = 30
	var mu sync.Mutex
	succeeded := 0

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				txn := m.Begin()
				cur := tb.Get(txn, key(1))
				if cur == nil {
					t.Error("row vanished")
					txn.Abort()
					return
				}
				ok, err := tb.Update(txn, key(1), row(1, cur[1].Int+1))
				if err != nil || !ok {
					txn.Abort()
					continue
				}
				if _, err := txn.Commit(); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				succeeded++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	final := tb.Get(m.Begin(), key(1))
	if final == nil {
		t.Fatal("row vanished")
	}
	if int(final[1].Int) != succeeded {
		t.Fatalf("final value %d != successful commits %d (lost update)", final[1].Int, succeeded)
	}
	if succeeded == 0 {
		t.Fatal("no increment ever succeeded")
	}
}

// TestWriteSkewAllowed documents that SI (not serializability) is provided:
// two transactions reading each other's write targets both commit.
func TestWriteSkewAllowed(t *testing.T) {
	m, tb := testTable(t)
	t0 := m.Begin()
	mustInsert(t, tb, t0, 1, 100)
	mustInsert(t, tb, t0, 2, 100)
	mustCommit(t, t0)

	a := m.Begin()
	b := m.Begin()
	// a reads row 2, writes row 1; b reads row 1, writes row 2.
	if r := tb.Get(a, key(2)); r == nil {
		t.Fatal("a read")
	}
	if r := tb.Get(b, key(1)); r == nil {
		t.Fatal("b read")
	}
	if ok, err := tb.Update(a, key(1), row(1, 0)); err != nil || !ok {
		t.Fatalf("a write: %v %v", ok, err)
	}
	if ok, err := tb.Update(b, key(2), row(2, 0)); err != nil || !ok {
		t.Fatalf("b write: %v %v", ok, err)
	}
	mustCommit(t, a)
	mustCommit(t, b) // SI permits this; serializable would not
}

// TestWritesEncodeTheCallersRow: Insert and Update encode the caller's row
// into the table's pages, widened as the schema stores it, and leave the
// row itself alone for the caller to reuse; a write allocates nothing of
// its own but the version chain's amortised growth.
func TestWritesEncodeTheCallersRow(t *testing.T) {
	s, err := storage.NewSchema("m", []storage.Column{
		{Name: "k", Type: sqlmini.KindInt, PrimaryKey: true},
		{Name: "x", Type: sqlmini.KindFloat},
		{Name: "s", Type: sqlmini.KindText},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager()
	tb := NewTable(s, m)
	txn := m.Begin()
	ins := storage.Row{key(1), sqlmini.NewInt(2), sqlmini.NewText("it's")}
	if err := tb.Insert(txn, ins); err != nil {
		t.Fatal(err)
	}
	if ins[1] != sqlmini.NewInt(2) {
		t.Errorf("Insert rewrote the caller's row: x = %#v", ins[1])
	}
	ins[2] = sqlmini.NewText("changed")
	want := storage.Row{key(1), sqlmini.NewFloat(2), sqlmini.NewText("it's")}
	if got := tb.Get(txn, key(1)); !got.Equal(want) {
		t.Errorf("stored %v, want %v", got, want)
	}

	const updates = 100
	row := storage.Row{key(1), {}, sqlmini.NewText("t")}
	next := 0
	allocs := testing.AllocsPerRun(updates, func() {
		row[1] = sqlmini.NewFloat(float64(next))
		if ok, err := tb.Update(txn, key(1), row); err != nil || !ok {
			t.Fatalf("Update: %v %v", ok, err)
		}
		next++
	})
	if got := tb.Get(txn, key(1)); got[1].Float() != float64(next-1) {
		t.Errorf("after %d updates x = %v, want %d", next, got[1], next-1)
	}
	if allocs >= 1 {
		t.Errorf("Update allocates %.2f times per call, want < 1 (no row copy)", allocs)
	}
}
