package engine

import (
	"errors"
	"strings"
	"testing"
	"time"

	"madeus/internal/mvcc"
	"madeus/internal/wal"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(Options{LockTimeout: time.Second})
	t.Cleanup(e.Close)
	if err := e.CreateDatabase("shop"); err != nil {
		t.Fatal(err)
	}
	return e
}

func newShopSession(t *testing.T) *Session {
	t.Helper()
	e := newTestEngine(t)
	s, err := e.NewSession("shop")
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "CREATE TABLE items (id INT PRIMARY KEY, title TEXT, cost FLOAT, stock INT)")
	return s
}

func mustExec(t *testing.T, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func TestCreateDropDatabase(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	if err := e.CreateDatabase("a"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateDatabase("a"); err == nil {
		t.Error("duplicate database: want error")
	}
	if err := e.CreateDatabase(""); err == nil {
		t.Error("empty name: want error")
	}
	if got := e.Databases(); len(got) != 1 || got[0] != "a" {
		t.Errorf("Databases = %v", got)
	}
	if err := e.DropDatabase("a"); err != nil {
		t.Fatal(err)
	}
	if err := e.DropDatabase("a"); err == nil {
		t.Error("drop missing: want error")
	}
	if _, err := e.NewSession("a"); err == nil {
		t.Error("session on dropped db: want error")
	}
}

func TestAutocommitInsertSelect(t *testing.T) {
	s := newShopSession(t)
	res := mustExec(t, s, "INSERT INTO items (id, title, cost, stock) VALUES (1, 'book', 9.5, 10), (2, 'pen', 1.25, 100)")
	if res.Affected != 2 {
		t.Errorf("Affected = %d", res.Affected)
	}
	res = mustExec(t, s, "SELECT id, title FROM items WHERE cost < 5")
	if len(res.Rows) != 1 || res.Rows[0][1].Str != "pen" {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.Tag != "SELECT 1" {
		t.Errorf("Tag = %q", res.Tag)
	}
}

func TestSelectStarOrderLimit(t *testing.T) {
	s := newShopSession(t)
	mustExec(t, s, "INSERT INTO items (id, title, cost, stock) VALUES (1, 'c', 3, 1), (2, 'a', 1, 1), (3, 'b', 2, 1)")
	res := mustExec(t, s, "SELECT * FROM items ORDER BY title DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][1].Str != "c" || res.Rows[1][1].Str != "b" {
		t.Errorf("rows = %v", res.Rows)
	}
	if len(res.Columns) != 4 {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestAggregates(t *testing.T) {
	s := newShopSession(t)
	mustExec(t, s, "INSERT INTO items (id, title, cost, stock) VALUES (1, 'a', 1.5, 10), (2, 'b', 2.5, 20)")
	res := mustExec(t, s, "SELECT COUNT(*) FROM items")
	if res.Rows[0][0].Int != 2 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	res = mustExec(t, s, "SELECT SUM(stock) FROM items")
	if res.Rows[0][0].Int != 30 {
		t.Errorf("sum int = %v", res.Rows[0][0])
	}
	res = mustExec(t, s, "SELECT SUM(cost) FROM items")
	if res.Rows[0][0].Float() != 4.0 {
		t.Errorf("sum float = %v", res.Rows[0][0])
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM items WHERE cost > 2")
	if res.Rows[0][0].Int != 1 {
		t.Errorf("filtered count = %v", res.Rows[0][0])
	}
}

func TestUpdateWithExpression(t *testing.T) {
	s := newShopSession(t)
	mustExec(t, s, "INSERT INTO items (id, title, cost, stock) VALUES (1, 'a', 2, 10)")
	res := mustExec(t, s, "UPDATE items SET stock = stock - 3, cost = cost * 2 WHERE id = 1")
	if res.Affected != 1 {
		t.Errorf("Affected = %d", res.Affected)
	}
	got := mustExec(t, s, "SELECT stock, cost FROM items WHERE id = 1")
	if got.Rows[0][0].Int != 7 || got.Rows[0][1].Float() != 4 {
		t.Errorf("rows = %v", got.Rows)
	}
}

func TestDelete(t *testing.T) {
	s := newShopSession(t)
	mustExec(t, s, "INSERT INTO items (id, title, cost, stock) VALUES (1, 'a', 1, 1), (2, 'b', 2, 2)")
	res := mustExec(t, s, "DELETE FROM items WHERE id = 1")
	if res.Affected != 1 {
		t.Errorf("Affected = %d", res.Affected)
	}
	got := mustExec(t, s, "SELECT COUNT(*) FROM items")
	if got.Rows[0][0].Int != 1 {
		t.Errorf("count after delete = %v", got.Rows[0][0])
	}
}

func TestExplicitTransactionCommit(t *testing.T) {
	s := newShopSession(t)
	mustExec(t, s, "BEGIN")
	if !s.InTxn() {
		t.Error("InTxn false after BEGIN")
	}
	mustExec(t, s, "INSERT INTO items (id, title, cost, stock) VALUES (1, 'a', 1, 1)")
	mustExec(t, s, "COMMIT")
	if s.InTxn() {
		t.Error("InTxn true after COMMIT")
	}
	got := mustExec(t, s, "SELECT COUNT(*) FROM items")
	if got.Rows[0][0].Int != 1 {
		t.Error("committed insert missing")
	}
}

func TestExplicitTransactionRollback(t *testing.T) {
	s := newShopSession(t)
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO items (id, title, cost, stock) VALUES (1, 'a', 1, 1)")
	mustExec(t, s, "ROLLBACK")
	got := mustExec(t, s, "SELECT COUNT(*) FROM items")
	if got.Rows[0][0].Int != 0 {
		t.Error("rolled-back insert visible")
	}
}

func TestFailedStatementPoisonsTransaction(t *testing.T) {
	s := newShopSession(t)
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO items (id, title, cost, stock) VALUES (1, 'a', 1, 1)")
	if _, err := s.Exec("SELECT * FROM nosuch"); err == nil {
		t.Fatal("want error for missing table")
	}
	if _, err := s.Exec("SELECT * FROM items"); !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("got %v, want ErrTxnAborted", err)
	}
	// COMMIT of a failed txn rolls back.
	res := mustExec(t, s, "COMMIT")
	if res.Tag != "ROLLBACK" {
		t.Errorf("Tag = %q, want ROLLBACK", res.Tag)
	}
	got := mustExec(t, s, "SELECT COUNT(*) FROM items")
	if got.Rows[0][0].Int != 0 {
		t.Error("poisoned txn effects visible")
	}
}

func TestTransactionControlErrors(t *testing.T) {
	s := newShopSession(t)
	if _, err := s.Exec("COMMIT"); err == nil {
		t.Error("COMMIT outside txn: want error")
	}
	if _, err := s.Exec("ROLLBACK"); err == nil {
		t.Error("ROLLBACK outside txn: want error")
	}
	mustExec(t, s, "BEGIN")
	if _, err := s.Exec("BEGIN"); err == nil {
		t.Error("nested BEGIN: want error")
	}
	mustExec(t, s, "COMMIT") // empty txn commits fine
}

func TestSnapshotTakenAtFirstStatementNotBegin(t *testing.T) {
	e := newTestEngine(t)
	s1, _ := e.NewSession("shop")
	s2, _ := e.NewSession("shop")
	mustExec(t, s1, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s1, "INSERT INTO t (id, v) VALUES (1, 0)")

	// s2 opens a txn block but issues no statement yet.
	mustExec(t, s2, "BEGIN")
	// s1 commits a change AFTER s2's BEGIN but BEFORE s2's first read.
	mustExec(t, s1, "UPDATE t SET v = 99 WHERE id = 1")
	// s2's first read must see the change: snapshot at first operation.
	res := mustExec(t, s2, "SELECT v FROM t WHERE id = 1")
	if res.Rows[0][0].Int != 99 {
		t.Errorf("got v=%v; snapshot was taken at BEGIN, want at first statement", res.Rows[0][0])
	}
	mustExec(t, s2, "COMMIT")
}

func TestSnapshotIsolationAcrossSessions(t *testing.T) {
	e := newTestEngine(t)
	s1, _ := e.NewSession("shop")
	s2, _ := e.NewSession("shop")
	mustExec(t, s1, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s1, "INSERT INTO t (id, v) VALUES (1, 1)")

	mustExec(t, s2, "BEGIN")
	res := mustExec(t, s2, "SELECT v FROM t WHERE id = 1") // snapshot here
	if res.Rows[0][0].Int != 1 {
		t.Fatal("setup")
	}
	mustExec(t, s1, "UPDATE t SET v = 2 WHERE id = 1")
	// s2 still sees v=1.
	res = mustExec(t, s2, "SELECT v FROM t WHERE id = 1")
	if res.Rows[0][0].Int != 1 {
		t.Errorf("snapshot leak: v=%v", res.Rows[0][0])
	}
	mustExec(t, s2, "COMMIT")
	res = mustExec(t, s2, "SELECT v FROM t WHERE id = 1")
	if res.Rows[0][0].Int != 2 {
		t.Errorf("after commit: v=%v", res.Rows[0][0])
	}
}

func TestFirstUpdaterWinsThroughSQL(t *testing.T) {
	e := newTestEngine(t)
	s1, _ := e.NewSession("shop")
	s2, _ := e.NewSession("shop")
	mustExec(t, s1, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s1, "INSERT INTO t (id, v) VALUES (1, 1)")

	mustExec(t, s1, "BEGIN")
	mustExec(t, s2, "BEGIN")
	mustExec(t, s1, "SELECT v FROM t WHERE id = 1")
	mustExec(t, s2, "SELECT v FROM t WHERE id = 1")
	mustExec(t, s1, "UPDATE t SET v = 10 WHERE id = 1")
	mustExec(t, s1, "COMMIT")
	_, err := s2.Exec("UPDATE t SET v = 20 WHERE id = 1")
	if !errors.Is(err, mvcc.ErrSerialization) {
		t.Fatalf("got %v, want ErrSerialization", err)
	}
	mustExec(t, s2, "ROLLBACK")
	res := mustExec(t, s1, "SELECT v FROM t WHERE id = 1")
	if res.Rows[0][0].Int != 10 {
		t.Errorf("v = %v, want 10", res.Rows[0][0])
	}
}

func TestReadOnlyCommitSkipsWAL(t *testing.T) {
	e := New(Options{WAL: wal.Options{Mode: wal.SerialCommit}})
	defer e.Close()
	if err := e.CreateDatabase("d"); err != nil {
		t.Fatal(err)
	}
	s, _ := e.NewSession("d")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY)")
	mustExec(t, s, "INSERT INTO t (id) VALUES (1)")
	before := e.WALStats().Fsyncs
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "SELECT * FROM t")
	mustExec(t, s, "COMMIT")
	if got := e.WALStats().Fsyncs; got != before {
		t.Errorf("read-only commit fsynced: %d -> %d", before, got)
	}
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t (id) VALUES (2)")
	mustExec(t, s, "COMMIT")
	if got := e.WALStats().Fsyncs; got != before+1 {
		t.Errorf("update commit fsyncs = %d, want %d", got, before+1)
	}
}

func TestMetaCommands(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	if err := e.CreateDatabase("d"); err != nil {
		t.Fatal(err)
	}
	s, _ := e.NewSession("d")
	res := mustExec(t, s, "CREATE DATABASE other")
	if res.Tag != "CREATE DATABASE" {
		t.Errorf("Tag = %q", res.Tag)
	}
	if _, ok := e.Database("other"); !ok {
		t.Error("other not created")
	}
	mustExec(t, s, "DROP DATABASE other")
	if _, ok := e.Database("other"); ok {
		t.Error("other not dropped")
	}
	if _, err := s.Exec("CREATE DATABASE"); err == nil {
		t.Error("want usage error")
	}
}

func TestDumpRestoreRoundTrip(t *testing.T) {
	e := newTestEngine(t)
	src, _ := e.NewSession("shop")
	mustExec(t, src, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT, w FLOAT)")
	mustExec(t, src, "INSERT INTO t (id, name, w) VALUES (2, 'b''q', 2.5), (1, 'a', 1.5), (3, NULL, NULL)")
	mustExec(t, src, "CREATE TABLE u (id INT PRIMARY KEY, ok BOOL)")
	mustExec(t, src, "INSERT INTO u (id, ok) VALUES (1, TRUE), (2, FALSE)")

	script, err := src.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateDatabase("copy"); err != nil {
		t.Fatal(err)
	}
	dst, _ := e.NewSession("copy")
	if err := dst.Restore(script); err != nil {
		t.Fatal(err)
	}
	eq, diff, err := StateEqual(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("restore not equal: %s", diff)
	}
	// Spot check a value survived quoting.
	res := mustExec(t, dst, "SELECT name FROM t WHERE id = 2")
	if res.Rows[0][0].Str != "b'q" {
		t.Errorf("quoted text = %q", res.Rows[0][0].Str)
	}
}

func TestDumpIsConsistentSnapshot(t *testing.T) {
	e := newTestEngine(t)
	s, _ := e.NewSession("shop")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (1, 1)")
	script1, err := s.Dump()
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "UPDATE t SET v = 2 WHERE id = 1")
	script2, err := s.Dump()
	if err != nil {
		t.Fatal(err)
	}
	j1 := strings.Join(sqlText(t, s, script1), "\n")
	j2 := strings.Join(sqlText(t, s, script2), "\n")
	if !strings.Contains(j1, "(1, 1)") {
		t.Errorf("dump1 = %q", j1)
	}
	if !strings.Contains(j2, "(1, 2)") {
		t.Errorf("dump2 = %q", j2)
	}
}

func TestDumpViaMetaCommand(t *testing.T) {
	s := newShopSession(t)
	mustExec(t, s, "INSERT INTO items (id, title, cost, stock) VALUES (1, 'a', 1, 1)")
	res := mustExec(t, s, "DUMP")
	if len(res.Rows) != 2 { // CREATE TABLE + one INSERT batch
		t.Fatalf("dump rows = %d: %v", len(res.Rows), res.Rows)
	}
	if !strings.HasPrefix(res.Rows[0][0].Str, "CREATE TABLE items") {
		t.Errorf("first line = %q", res.Rows[0][0].Str)
	}
}

func TestDumpBatching(t *testing.T) {
	e := New(Options{DumpBatch: 3})
	defer e.Close()
	if err := e.CreateDatabase("d"); err != nil {
		t.Fatal(err)
	}
	s, _ := e.NewSession("d")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY)")
	mustExec(t, s, "INSERT INTO t (id) VALUES (1), (2), (3), (4), (5), (6), (7)")
	script, err := s.Dump()
	if err != nil {
		t.Fatal(err)
	}
	// 1 CREATE + ceil(7/3)=3 INSERTs
	if len(script) != 4 {
		t.Fatalf("script lines = %d: %v", len(script), script)
	}
}

func TestRowCount(t *testing.T) {
	s := newShopSession(t)
	mustExec(t, s, "INSERT INTO items (id, title, cost, stock) VALUES (1, 'a', 1, 1), (2, 'b', 2, 2)")
	n, err := s.RowCount("items")
	if err != nil || n != 2 {
		t.Errorf("RowCount = %d, %v", n, err)
	}
}

func TestExecSlotLimitsThroughput(t *testing.T) {
	// With 1 slot and 5ms per statement, 4 concurrent statements take at
	// least ~20ms: the slot semaphore serializes them. (No upper-bound
	// comparison against more slots: simulated statement cost burns CPU,
	// so extra slots only help on multi-core hosts.)
	run := func(slots int) time.Duration {
		e := New(Options{ExecSlots: slots, StmtCost: 5 * time.Millisecond})
		defer e.Close()
		if err := e.CreateDatabase("d"); err != nil {
			t.Fatal(err)
		}
		setup, _ := e.NewSession("d")
		mustExec(t, setup, "CREATE TABLE t (id INT PRIMARY KEY)")
		start := time.Now()
		done := make(chan struct{})
		for i := 0; i < 4; i++ {
			go func() {
				defer func() { done <- struct{}{} }()
				sess, _ := e.NewSession("d")
				mustExec(t, sess, "SELECT COUNT(*) FROM t")
			}()
		}
		for i := 0; i < 4; i++ {
			<-done
		}
		return time.Since(start)
	}
	serial := run(1)
	if serial < 18*time.Millisecond {
		t.Errorf("1 slot: %v, want >= ~20ms", serial)
	}
	parallel := run(4)
	if parallel < 5*time.Millisecond {
		t.Errorf("4 slots finished in %v, faster than one statement's cost", parallel)
	}
}

// TestRowStatementPaysPerSection: a row statement takes an execution slot
// and pays StmtCost once per section, as the dump-batch INSERTs its sections
// stand for did, so joining a restore chunk into one statement leaves the CPU
// model's cost of a restored row as it was.
func TestRowStatementPaysPerSection(t *testing.T) {
	var schema, rows []string
	if _, err := restoreSource(t, 200, 3).DumpStream(0, func(stmts []string) error {
		if schema == nil {
			schema = stmts
		} else {
			rows = stmts
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("dumped %d row statements, want 4 of 50 rows", len(rows))
	}
	const cost = 3 * time.Millisecond
	e := New(Options{ExecSlots: 1, StmtCost: cost})
	defer e.Close()
	if err := e.CreateDatabase("d"); err != nil {
		t.Fatal(err)
	}
	s, _ := e.NewSession("d")
	for _, q := range schema {
		mustExec(t, s, q)
	}
	start := time.Now()
	mustExec(t, s, strings.Join(rows, ""))
	if took := time.Since(start); took < time.Duration(len(rows))*cost {
		t.Errorf("a 4-section row statement took %v, want >= %v", took, time.Duration(len(rows))*cost)
	}
	if n, err := s.RowCount("t"); err != nil || n != 200 {
		t.Errorf("RowCount = %d, %v", n, err)
	}
}

func TestErrorCases(t *testing.T) {
	s := newShopSession(t)
	for _, sql := range []string{
		"SELECT * FROM missing",
		"INSERT INTO missing (a) VALUES (1)",
		"UPDATE missing SET a = 1",
		"DELETE FROM missing",
		"DROP TABLE missing",
		"INSERT INTO items (nope) VALUES (1)",
		"UPDATE items SET nope = 1",
		"SELECT nope FROM items",
		"SELECT * FROM items ORDER BY nope",
		"SELECT SUM(nope) FROM items",
		"SELECT COUNT(*), id FROM items",
		"CREATE TABLE items (id INT PRIMARY KEY)", // duplicate
		"not sql at all",
	} {
		if _, err := s.Exec(sql); err == nil {
			t.Errorf("Exec(%q): want error", sql)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	s := newShopSession(t)
	mustExec(t, s, "INSERT INTO items (id, title, cost, stock) VALUES (1, 'a', 1, 0)")
	if _, err := s.Exec("SELECT * FROM items WHERE cost / stock > 1"); err == nil {
		t.Error("want division-by-zero error")
	}
}

func TestNullComparisonSelectsNothing(t *testing.T) {
	s := newShopSession(t)
	mustExec(t, s, "INSERT INTO items (id, title, cost, stock) VALUES (1, NULL, 1, 1)")
	res := mustExec(t, s, "SELECT * FROM items WHERE title = 'x'")
	if len(res.Rows) != 0 {
		t.Errorf("NULL = 'x' matched: %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT * FROM items WHERE title <> 'x'")
	if len(res.Rows) != 0 {
		t.Errorf("NULL <> 'x' matched: %v", res.Rows)
	}
}

func TestSessionCloseAbortsTxn(t *testing.T) {
	s := newShopSession(t)
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO items (id, title, cost, stock) VALUES (1, 'a', 1, 1)")
	s.Close()
	e := s.eng
	s2, _ := e.NewSession("shop")
	res := mustExec(t, s2, "SELECT COUNT(*) FROM items")
	if res.Rows[0][0].Int != 0 {
		t.Error("close did not abort txn")
	}
}

func TestPKFastPathMatchesScan(t *testing.T) {
	s := newShopSession(t)
	mustExec(t, s, "INSERT INTO items (id, title, cost, stock) VALUES (1, 'a', 1, 1), (2, 'b', 2, 2), (3, 'c', 3, 3)")
	// id = 2 AND stock = 2 → fast path with residual filter match
	res := mustExec(t, s, "SELECT title FROM items WHERE id = 2 AND stock = 2")
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "b" {
		t.Errorf("rows = %v", res.Rows)
	}
	// id = 2 AND stock = 99 → fast path, residual filter rejects
	res = mustExec(t, s, "SELECT title FROM items WHERE id = 2 AND stock = 99")
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v", res.Rows)
	}
	// literal on the left
	res = mustExec(t, s, "SELECT title FROM items WHERE 3 = id")
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "c" {
		t.Errorf("rows = %v", res.Rows)
	}
}
