package engine

import (
	"slices"
	"strconv"
	"testing"

	"madeus/internal/invariant"
	"madeus/internal/wal"
)

// TestTxnAllocs counts what a transaction costs a node's session on the
// steady path, with no clock in the count: an in-memory, group-committed
// engine, a 2,000-row table, statements answered from the session's own
// buffers as a wire server answers them. A read-only transaction allocates
// nothing: the session's Txn is reused, its state is filed by value and a
// read-only commit does not touch the log. An update transaction allocates
// only what the new version itself needs stored (its chain's versions and
// its row's page space), not its lock list, its redo image or its commit
// wait.
func TestTxnAllocs(t *testing.T) {
	before := invariant.Count()
	invariant.Assert(true, "")
	if invariant.Count() > before {
		t.Skip("armed assertions box their arguments: the count is of the production build")
	}
	s := loadItems(t, 2000)
	exec := func(sql string) {
		if _, err := s.ExecLent(sql); err != nil {
			t.Fatalf("ExecLent(%q): %v", sql, err)
		}
	}
	// The texts are built up front, so the count is the engine's alone.
	var selects, updates []string
	for i := range 2000 {
		k := strconv.Itoa(i*7%2000 + 1)
		selects = append(selects, "SELECT i_title, i_stock FROM item WHERE i_id = "+k)
		updates = append(updates, "UPDATE item SET i_stock = i_stock + 1 WHERE i_id = "+k)
	}
	next := 0
	read := func() {
		exec("BEGIN")
		exec(selects[next%len(selects)])
		exec("COMMIT")
		next++
	}
	update := func() {
		exec("BEGIN")
		exec(selects[next%len(selects)])
		exec(updates[next%len(updates)])
		exec("COMMIT")
		next++
	}
	for _, c := range []struct {
		name string
		run  func()
		max  float64
	}{
		{"BEGIN, SELECT, COMMIT", read, 0},
		{"BEGIN, SELECT, UPDATE, COMMIT", update, 3},
	} {
		c.run() // fill the parse cache
		if got := testing.AllocsPerRun(200, c.run); got > c.max {
			t.Errorf("%s: %.2f allocations, want at most %.0f", c.name, got, c.max)
		} else {
			t.Logf("%s: %.2f allocations", c.name, got)
		}
	}
}

// TestRedoImagesLentToTheLog: UPDATE and DELETE build their rows' redo
// images in one buffer the session reuses statement after statement, and
// lend them to the log for the append (wal.Record). A log that keeps its
// records keeps copies, so each kept record is still its own row's image
// after later statements have rebuilt the buffer.
func TestRedoImagesLentToTheLog(t *testing.T) {
	e := New(Options{WAL: wal.Options{RetainRecords: 1 << 10}})
	defer e.Close()
	if err := e.CreateDatabase("db"); err != nil {
		t.Fatal(err)
	}
	s, err := e.NewSession("db")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, sql := range []string{
		"CREATE TABLE t (id INT PRIMARY KEY, v TEXT)",
		"INSERT INTO t (id, v) VALUES (1, 'a'), (2, 'b'), (3, 'c')",
		"BEGIN",
		"UPDATE t SET v = 'xx' WHERE id <= 2",
		"DELETE FROM t WHERE id = 3",
		"UPDATE t SET v = 'y' WHERE id = 1",
		"COMMIT",
		"UPDATE t SET v = 'zzz' WHERE id = 2",
	} {
		mustExec(t, s, sql)
	}
	var got []string
	for _, rec := range e.log.Retained() {
		if rec.Kind == wal.RecUpdate || rec.Kind == wal.RecDelete {
			got = append(got, rec.Data)
		}
	}
	want := []string{
		"UPDATE t SET id = 1, v = 'xx' WHERE id = 1",
		"UPDATE t SET id = 2, v = 'xx' WHERE id = 2",
		"DELETE FROM t WHERE id = 3",
		"UPDATE t SET id = 1, v = 'y' WHERE id = 1",
		"UPDATE t SET id = 2, v = 'zzz' WHERE id = 2",
	}
	if !slices.Equal(got, want) {
		t.Errorf("kept redo records:\n%q\nwant\n%q", got, want)
	}
}
