package mvcc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"madeus/internal/sqlmini"
	"madeus/internal/storage"
)

// Tests for block filing (Table.InsertRecs), the path every restored row
// takes: a block's rows get their chains and their row locks in one hold of
// the stripe and cursor locks, so the locks cost nothing to take, and they
// still do all that Insert's locks do.

// recsOf encodes rows as tb stores them, back to back: a dump section's
// rows.
func recsOf(tb *Table, rows ...storage.Row) []byte {
	var recs []byte
	for _, r := range rows {
		recs = appendRow(recs, tb.Schema, r)
	}
	return recs
}

// keyRange returns the rows row(k, v) for k in [from, to).
func keyRange(from, to, v int64) []storage.Row {
	var rows []storage.Row
	for k := from; k < to; k++ {
		rows = append(rows, row(k, v))
	}
	return rows
}

// insertAsync runs tb.Insert(txn, r) on its own goroutine and returns where
// its error arrives.
func insertAsync(tb *Table, txn *Txn, r storage.Row) <-chan error {
	done := make(chan error, 1)
	go func() { done <- tb.Insert(txn, r) }()
	return done
}

// waiting fails the test unless the insert behind done is still blocked.
func waiting(t *testing.T, done <-chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s returned %v while the filing transaction is open, want it to wait", what, err)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestBlockFiledRowLocks: a row a block filing inserted is locked by its
// transaction exactly as an inserted one is. An Insert of its key waits
// while the transaction is open; after its commit the Insert fails with
// ErrUniqueViolation, after its abort it succeeds. A filing over slots an
// aborted transaction left holding chains takes Insert's checks there,
// and rows out of key order are refused.
func TestBlockFiledRowLocks(t *testing.T) {
	m, tb := testTable(t)

	load := m.Begin()
	n, last, err := tb.InsertRecs(load, recsOf(tb, keyRange(0, 200, 1)...), sqlmini.Value{})
	if err != nil || n != 200 || last != key(199) {
		t.Fatalf("InsertRecs = %d, %v, %v; want 200, 199, nil", n, last, err)
	}
	other := m.Begin()
	done := insertAsync(tb, other, row(70, 2))
	waiting(t, done, "an Insert of a committing filing's key")
	mustCommit(t, load)
	if err := <-done; !errors.Is(err, ErrUniqueViolation) {
		t.Fatalf("Insert after the filing committed: %v, want ErrUniqueViolation", err)
	}
	other.Abort()

	load = m.Begin()
	if _, _, err := tb.InsertRecs(load, recsOf(tb, keyRange(1000, 1100, 1)...), sqlmini.Value{}); err != nil {
		t.Fatal(err)
	}
	other = m.Begin()
	done = insertAsync(tb, other, row(1050, 2))
	waiting(t, done, "an Insert of an aborting filing's key")
	if err := load.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Insert after the filing aborted: %v", err)
	}
	mustCommit(t, other)

	// Every slot of 1000..1099 now holds a chain: 1050 a committed row, the
	// others nothing. A filing of them all fails on 1050, and one that
	// leaves it out fills the others.
	load = m.Begin()
	if _, _, err := tb.InsertRecs(load, recsOf(tb, keyRange(1000, 1100, 3)...), sqlmini.Value{}); !errors.Is(err, ErrUniqueViolation) {
		t.Fatalf("filing over a committed row: %v, want ErrUniqueViolation", err)
	}
	load.Abort()
	load = m.Begin()
	recs := recsOf(tb, append(keyRange(1000, 1050, 3), keyRange(1051, 1100, 3)...)...)
	if n, _, err := tb.InsertRecs(load, recs, sqlmini.Value{}); err != nil || n != 99 {
		t.Fatalf("filing over the aborted filing's chains: %d rows, %v", n, err)
	}
	mustCommit(t, load)
	r := m.Begin()
	for k := int64(1000); k < 1100; k++ {
		want := int64(3)
		if k == 1050 {
			want = 2
		}
		if got := tb.Get(r, key(k)); got == nil || got[1].Int != want {
			t.Fatalf("key %d reads %v, want v = %d", k, got, want)
		}
	}
	r.Commit()

	for _, bad := range []struct {
		recs  []byte
		after sqlmini.Value
	}{
		{recsOf(tb, row(2001, 1), row(2000, 1)), sqlmini.Value{}},
		{recsOf(tb, row(2000, 1), row(2000, 1)), sqlmini.Value{}},
		{recsOf(tb, row(2000, 1)), key(2000)},
		{recsOf(tb, row(2000, 1), row(3000, 1), row(2500, 1)), sqlmini.Value{}},
	} {
		load = m.Begin()
		if _, _, err := tb.InsertRecs(load, bad.recs, bad.after); err == nil {
			t.Errorf("rows out of key order (after %v) were filed", bad.after)
		}
		load.Abort()
	}
	if n := tb.Len(m.Begin()); n != 300 {
		t.Errorf("the table holds %d rows, want 300", n)
	}
}

// TestCompactionDuringBlockFiling: compactions racing block-filed loads
// lose no row. A filing reserves and copies a block's rows and publishes
// their chains under the cursor lock a compaction closes cursors under, so
// either the rows land in a page the compaction keeps or their chains are
// in the directory before it walks it; a chain it missed would keep a ref
// into a page it dropped. Meant for -race and -tags invariants too.
func TestCompactionDuringBlockFiling(t *testing.T) {
	s, err := storage.NewSchema("kv", []storage.Column{
		{Name: "k", Type: sqlmini.KindInt, PrimaryKey: true},
		{Name: "v", Type: sqlmini.KindInt},
		{Name: "s", Type: sqlmini.KindText},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManagerStriped(4)
	tb := NewTable(s, m)
	rowOf := func(k int64) storage.Row {
		return storage.Row{key(k), sqlmini.NewInt(k * 3), sqlmini.NewText(fmt.Sprintf("row %d", k))}
	}
	const (
		loaders = 2
		chunks  = 40
		chunk   = 320 // five blocks
	)
	var wg sync.WaitGroup
	errs := make(chan error, loaders)
	stop := make(chan struct{})
	compactions := 0
	go func() { // compacts as often as it can until the loads are done
		for {
			select {
			case <-stop:
				close(errs)
				return
			default:
			}
			tb.compactMu.Lock()
			tb.compact()
			tb.compactMu.Unlock()
			compactions++
		}
	}()
	for l := range loaders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := l; c < loaders*chunks; c += loaders {
				var rows []storage.Row
				for k := int64(c * chunk); k < int64((c+1)*chunk); k++ {
					rows = append(rows, rowOf(k))
				}
				txn := m.Begin()
				if _, _, err := tb.InsertRecs(txn, recsOf(tb, rows...), sqlmini.Value{}); err != nil {
					errs <- err
					txn.Abort()
					return
				}
				if _, err := txn.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	stop <- struct{}{}
	for err := range errs {
		t.Fatal(err)
	}
	tb.compactMu.Lock()
	tb.compact()
	tb.compactMu.Unlock()

	r := m.Begin()
	defer r.Commit()
	next := int64(0)
	if err := tb.Scan(r, func(got storage.Row) bool {
		if want := rowOf(next); !got.Equal(want) {
			t.Fatalf("row %d reads %v, want %v", next, got, want)
		}
		next++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if want := int64(loaders * chunks * chunk); next != want {
		t.Fatalf("scan read %d rows, want %d", next, want)
	}
	t.Logf("%d rows filed across %d compactions", next, compactions)
}
