package engine

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"madeus/internal/sqlmini"
	"madeus/internal/storage"
	"madeus/internal/wal"
)

// goldenStmts build a table holding every value kind — NULL, negative INT,
// integral FLOAT, quoted TEXT, BOOL — and FLOATs whose shortest form has an
// exponent, one of them stored from an INT literal. The rows of the
// computed INSERT are deleted again, so they reach the redo log only.
var goldenStmts = []string{
	"CREATE TABLE kinds (id INT PRIMARY KEY, n INT, f FLOAT, s TEXT, b BOOL)",
	"CREATE INDEX kinds_s ON kinds (s)",
	"INSERT INTO kinds (id, n, f, s, b) VALUES (1, -7, 3, 'it''s', TRUE), (2, NULL, 2.5, '', FALSE), (3, 0, -0.125, NULL, NULL)",
	"INSERT INTO kinds (id, f, s) VALUES (4, 1234567, 'x')",
	"INSERT INTO kinds (id, n, f) VALUES (5, -9223372036854775807, 0.00001)",
	"UPDATE kinds SET n = 42, f = 1000000 WHERE id = 2",
	"UPDATE kinds SET s = 'a''''b' WHERE id >= 4",
	"DELETE FROM kinds WHERE id = 3",
	"INSERT INTO kinds (id, f) VALUES (6, 1234567.5)",
	"INSERT INTO kinds (id, n, f) VALUES (7, 1 + 2, 0.5), (8, -9223372036854775807 - 1, 2)",
	"DELETE FROM kinds WHERE id >= 7",
}

// TestDumpAndRedoTextGolden pins what a dump, the redo records and a
// checkpoint carry, byte for byte: migrations ship it and recovery re-reads
// it, so a renderer or row-encoding change must not move a byte. The DUMP
// command renders a row as stored (1e+06). A literal INSERT is its own redo
// record, its statement text as the client sent it. Any other write logs
// its rows as evaluated, before the table widens them (the INT 1000000 and
// 2 in a FLOAT column), every column named. A dump's rows are row
// statements (hex golden below), and a checkpoint file is the dump in
// frames.
func TestDumpAndRedoTextGolden(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{DataDir: dir, DumpBatch: 2, WAL: wal.Options{RetainRecords: 64}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.CreateDatabase("g"); err != nil {
		t.Fatal(err)
	}
	s, _ := e.NewSession("g")
	for _, q := range goldenStmts {
		mustExec(t, s, q)
	}
	var dump []string
	for _, row := range mustExec(t, s, "DUMP").Rows {
		dump = append(dump, row[0].Str)
	}
	wantDump := []string{
		"CREATE TABLE kinds (id INT PRIMARY KEY, n INT, f FLOAT, s TEXT, b BOOL)",
		"CREATE INDEX kinds_s ON kinds (s)",
		"INSERT INTO kinds (id, n, f, s, b) VALUES (1, -7, 3, 'it''s', TRUE), (2, 42, 1e+06, '', FALSE)",
		"INSERT INTO kinds (id, n, f, s, b) VALUES (4, NULL, 1.234567e+06, 'a''''b', NULL), (5, -9223372036854775807, 1e-05, 'a''''b', NULL)",
		"INSERT INTO kinds (id, n, f, s, b) VALUES (6, NULL, 1.2345675e+06, NULL, NULL)",
	}
	if got, want := strings.Join(dump, "\n"), strings.Join(wantDump, "\n"); got != want {
		t.Errorf("dump:\n got %s\nwant %s", got, want)
	}

	var redo []string
	for _, r := range e.log.Retained() {
		if r.Data != "" {
			redo = append(redo, r.Data)
		}
	}
	wantRedo := []string{
		"CREATE DATABASE g",
		"CREATE TABLE kinds (id INT PRIMARY KEY, n INT, f FLOAT, s TEXT, b BOOL)",
		"CREATE INDEX kinds_s ON kinds (s)",
		"INSERT INTO kinds (id, n, f, s, b) VALUES (1, -7, 3, 'it''s', TRUE), (2, NULL, 2.5, '', FALSE), (3, 0, -0.125, NULL, NULL)",
		"INSERT INTO kinds (id, f, s) VALUES (4, 1234567, 'x')",
		"INSERT INTO kinds (id, n, f) VALUES (5, -9223372036854775807, 0.00001)",
		"UPDATE kinds SET id = 2, n = 42, f = 1000000, s = '', b = FALSE WHERE id = 2",
		"UPDATE kinds SET id = 4, n = NULL, f = 1.234567e+06, s = 'a''''b', b = NULL WHERE id = 4",
		"UPDATE kinds SET id = 5, n = -9223372036854775807, f = 1e-05, s = 'a''''b', b = NULL WHERE id = 5",
		"DELETE FROM kinds WHERE id = 3",
		"INSERT INTO kinds (id, f) VALUES (6, 1234567.5)",
		"INSERT INTO kinds (id, n, f, s, b) VALUES (7, 3, 0.5, NULL, NULL), (8, -9223372036854775808, 2, NULL, NULL)",
		"DELETE FROM kinds WHERE id = 7",
		"DELETE FROM kinds WHERE id = 8",
	}
	if got, want := strings.Join(redo, "\n"), strings.Join(wantRedo, "\n"); got != want {
		t.Errorf("redo records:\n got %s\nwant %s", got, want)
	}

	// The row statements, once row 6 holds the least INT: a section head
	// (the NUL mark, the name's u16 length, the name, the rows' u32 length),
	// then per row its five kind bytes, five 8-byte slots and its TEXT.
	mustExec(t, s, "UPDATE kinds SET n = -9223372036854775807 - 1 WHERE id = 6")
	script, err := s.Dump()
	if err != nil {
		t.Fatal(err)
	}
	head := "00" + "0500" + hex.EncodeToString([]byte("kinds"))
	wantRows := []string{
		head + "5e000000" +
			// 1, -7, 3, 'it''s' at byte 45, TRUE
			"0101020304" + "0100000000000000" + "f9ffffffffffffff" + "0000000000000840" + "2d00000004000000" + "0100000000000000" + "69742773" +
			// 2, 42, 1e+06, '' at byte 45, FALSE
			"0101020304" + "0200000000000000" + "2a00000000000000" + "0000000080842e41" + "2d00000000000000" + "0000000000000000",
		head + "62000000" +
			// 4, NULL, 1.234567e+06, 'a''''b', NULL
			"0100020300" + "0400000000000000" + "0000000000000000" + "0000000087d63241" + "2d00000004000000" + "0000000000000000" + "61272762" +
			// 5, -9223372036854775807, 1e-05, 'a''''b', NULL
			"0101020300" + "0500000000000000" + "0100000000000080" + "f168e388b5f8e43e" + "2d00000004000000" + "0000000000000000" + "61272762",
		head + "2d000000" +
			// 6, the least INT, 1.2345675e+06, NULL, NULL
			"0101020000" + "0600000000000000" + "0000000000000080" + "0000008087d63241" + "0000000000000000" + "0000000000000000",
	}
	var gotRows []string
	for _, stmt := range script[2:] {
		gotRows = append(gotRows, hex.EncodeToString([]byte(stmt)))
	}
	if got, want := strings.Join(gotRows, "\n"), strings.Join(wantRows, "\n"); got != want {
		t.Errorf("row statements:\n got %s\nwant %s", got, want)
	}

	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, ckptPrefix+"*", "db-0.tbl"))
	if len(files) != 1 {
		t.Fatalf("checkpoint files %v, want one", files)
	}
	f, err := os.Open(files[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var framed []string
	for br := bufio.NewReader(f); ; {
		payload, err := wal.ReadFrame(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		framed = append(framed, string(payload))
	}
	if !slices.Equal(framed, script) {
		t.Errorf("checkpoint statements:\n got %q\nwant %q", framed, script)
	}
}

// TestWritesEncodeTheParsersRows carries mvcc's TestWritesEncodeTheCallersRow
// up to the executor: a multi-row literal INSERT is decoded into the
// session's argument array and its rows are encoded, widened, without being
// changed, so the next INSERT reuses the array; and a single-row INSERT runs
// from the parse cache, whose statement holds no value of its own, with its
// INT argument untouched.
func TestWritesEncodeTheParsersRows(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	if err := e.CreateDatabase("o"); err != nil {
		t.Fatal(err)
	}
	s, _ := e.NewSession("o")
	mustExec(t, s, "CREATE TABLE m (k INT PRIMARY KEY, x FLOAT)")
	tb, _ := s.db.table("m")
	stored := func(k int64) storage.Row {
		r := s.db.mgr.Begin()
		defer r.Commit()
		return tb.Get(r, sqlmini.NewInt(k))
	}

	mustExec(t, s, "INSERT INTO m (k, x) VALUES (1, 2), (2, 3)")
	parsed := s.args[:4]
	if want := []sqlmini.Value{sqlmini.NewInt(1), sqlmini.NewInt(2), sqlmini.NewInt(2), sqlmini.NewInt(3)}; !slices.Equal(parsed, want) {
		t.Errorf("argument array holds %v, want the INSERT's rows unchanged %v", parsed, want)
	}
	mustExec(t, s, "INSERT INTO m (k, x) VALUES (5, 6), (7, 8)")
	if &s.args[:1][0] != &parsed[0] {
		t.Error("the second INSERT did not reuse the session's argument array")
	}
	for k, x := range map[int64]float64{1: 2, 2: 3, 5: 6, 7: 8} {
		if got := stored(k); got[1] != sqlmini.NewFloat(x) {
			t.Errorf("row %d: stored x = %s %v, want FLOAT %v", k, got[1].Kind, got[1], x)
		}
	}

	const one = "INSERT INTO m (k, x) VALUES (3, 4)"
	mustExec(t, s, one)
	mustExec(t, s, "DELETE FROM m WHERE k = 3")
	hits := s.db.ParseCacheStats().Hits
	mustExec(t, s, one)
	if s.db.ParseCacheStats().Hits != hits+1 {
		t.Fatal("the single-row INSERT did not run from the parse cache")
	}
	if vals := s.args[:2]; vals[1] != sqlmini.NewInt(4) {
		t.Errorf("the INSERT's x argument = %s %v, want the INT it was lexed as", vals[1].Kind, vals[1])
	}
	cached, err := s.db.pcache.Get(string(s.key))
	if err != nil {
		t.Fatal(err)
	}
	if ins := cached.(*sqlmini.Insert); ins.Values != nil || ins.Rows != nil {
		t.Errorf("the cached INSERT holds rows of its own: %v %v", ins.Values, ins.Rows)
	}
	if got := stored(3); got[1] != sqlmini.NewFloat(4) {
		t.Errorf("stored x = %s %v, want FLOAT 4", got[1].Kind, got[1])
	}
}

// exponentFloats writes, in plain decimals, FLOATs whose shortest rendering
// carries an exponent: 1.2345675e+06, 1e-05, 1e+21 and -2.5e-07.
const exponentFloats = "INSERT INTO m (id, x) VALUES (1, 1234567.5), (2, 0.00001), (3, 1000000000000000000000.0), (4, -0.00000025)"

// TestRecoverExponentFloats: FLOATs rendered with an exponent survive every
// re-read — a checkpoint load, a redo replay after a crash and a restore of
// the recovered node's dump.
func TestRecoverExponentFloats(t *testing.T) {
	oracle := newOracle(t)
	mustExec(t, oracle, "CREATE TABLE m (id INT PRIMARY KEY, x FLOAT)")
	mustExec(t, oracle, exponentFloats)
	mustExec(t, oracle, "UPDATE m SET x = x * 10 WHERE id = 4")

	dir := t.TempDir()
	e := openDurable(t, dir)
	if err := e.CreateDatabase("tenant"); err != nil {
		t.Fatal(err)
	}
	sess, _ := e.NewSession("tenant")
	mustExec(t, sess, "CREATE TABLE kv (id INT PRIMARY KEY, v TEXT, n INT)")
	mustExec(t, sess, "CREATE TABLE m (id INT PRIMARY KEY, x FLOAT)")
	mustExec(t, sess, exponentFloats)
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, sess, "UPDATE m SET x = x * 10 WHERE id = 4")
	e.Crash()

	e2 := openDurable(t, dir)
	if rec := e2.LastRecovery(); rec.CheckpointLSN == 0 || rec.Applied == 0 {
		t.Fatalf("recovery loaded checkpoint %d and applied %d units, want both", rec.CheckpointLSN, rec.Applied)
	}
	requireStateEqual(t, oracle, e2)
	e2.Close()

	// A clean close leaves redo records only; they replay as well.
	e3 := openDurable(t, dir)
	defer e3.Close()
	requireStateEqual(t, oracle, e3)
	s3, _ := e3.NewSession("tenant")
	if res := mustExec(t, s3, "SELECT x FROM m WHERE id = 3"); res.Rows[0][0].Float() != 1e21 {
		t.Errorf("x = %v, want 1e+21", res.Rows[0][0])
	}
}

// restoreSource loads rows rows into a table of cols columns (an INT key,
// then TEXT, FLOAT and INT columns in turn), the shape a dump batches.
func restoreSource(tb testing.TB, rows, cols int) *Session {
	tb.Helper()
	e := New(Options{LockTimeout: time.Second})
	tb.Cleanup(e.Close)
	if err := e.CreateDatabase("src"); err != nil {
		tb.Fatal(err)
	}
	s, _ := e.NewSession("src")
	kinds := []string{"TEXT", "FLOAT", "INT"}
	names, defs := []string{"id"}, []string{"id INT PRIMARY KEY"}
	for c := 1; c < cols; c++ {
		names = append(names, fmt.Sprintf("c%d", c))
		defs = append(defs, fmt.Sprintf("c%d %s", c, kinds[c%3]))
	}
	if _, err := s.Exec("CREATE TABLE t (" + strings.Join(defs, ", ") + ")"); err != nil {
		tb.Fatal(err)
	}
	var vals []string
	for r := 0; r < rows; r++ {
		row := []string{fmt.Sprint(r)}
		for c := 1; c < cols; c++ {
			row = append(row, []string{fmt.Sprintf("'text %d'", r), fmt.Sprintf("%d.25", r), fmt.Sprint(r * c)}[c%3])
		}
		vals = append(vals, "("+strings.Join(row, ", ")+")")
		if len(vals) == 100 || r == rows-1 {
			if _, err := s.Exec("INSERT INTO t (" + strings.Join(names, ", ") + ") VALUES " + strings.Join(vals, ", ")); err != nil {
				tb.Fatal(err)
			}
			vals = vals[:0]
		}
	}
	return s
}

// sectionRows is the encoded rows of every section of the row statement
// b, back to back.
func sectionRows(t *testing.T, b []byte) []byte {
	t.Helper()
	var rows []byte
	for len(b) > 0 {
		_, r, rest, err := nextSection(b)
		if err != nil {
			t.Fatal(err)
		}
		rows, b = append(rows, r...), rest
	}
	return rows
}

// FuzzApplyRows checks the decoder every restored, checkpointed and
// replayed row passes through. Applied in autocommit to an empty copy of
// restoreSource's table, a row statement of any bytes never panics, and it
// either fails and leaves no row visible, or is accepted and dumps back to
// the same rows, byte for byte (a dump may cut them into statements at
// other points). The seed corpus (testdata/fuzz/FuzzApplyRows) holds real
// row statements of restoreSource: one, three joined, the middle one of
// those, and one cut short.
func FuzzApplyRows(f *testing.F) {
	var schema []string
	if _, err := restoreSource(f, 1, 6).DumpStream(0, func(stmts []string) error {
		if schema == nil {
			schema = stmts
		}
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	e := New(Options{LockTimeout: time.Second})
	f.Cleanup(e.Close)
	f.Fuzz(func(t *testing.T, stmt []byte) {
		if !IsRowStatement(string(stmt)) {
			return // SQL text is FuzzParse's
		}
		if err := e.CreateDatabase("dst"); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := e.DropDatabase("dst"); err != nil {
				t.Fatal(err)
			}
		}()
		s, _ := e.NewSession("dst")
		defer s.Close()
		for _, q := range schema {
			mustExec(t, s, q)
		}
		_, err := s.Exec(string(stmt))
		n, cerr := s.RowCount("t")
		if cerr != nil {
			t.Fatal(cerr)
		}
		if err != nil {
			if n != 0 {
				t.Fatalf("a rejected row statement (%v) left %d rows visible", err, n)
			}
			return
		}
		var again []byte
		if _, err := s.DumpStream(0, func(stmts []string) error {
			for _, st := range stmts {
				if IsRowStatement(st) {
					again = append(again, sectionRows(t, []byte(st))...)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want := sectionRows(t, stmt); !bytes.Equal(again, want) {
			t.Fatalf("%d accepted rows dump back differently:\n got %x\nwant %x", n, again, want)
		}
	})
}

// TestDumpStreamAllocsPerStatement pins the dump side of a migration: every
// chunk is built in one reused buffer, and a chunk, one row statement of up
// to 64 sections, costs DumpStream's sink one string and its slice, so a
// dump allocates at most about once per section of DumpBatch rows, however
// wide its rows. The cost is read as the difference between dumps of 1,000
// and 2,000 rows, 20 sections apart at the default DumpBatch, which leaves
// out the fixed costs of a dump (its transaction, the schema).
func TestDumpStreamAllocsPerStatement(t *testing.T) {
	dumpAllocs := func(rows, cols int) float64 {
		s := restoreSource(t, rows, cols)
		return testing.AllocsPerRun(10, func() {
			if _, err := s.DumpStream(DefaultDumpChunk, func([]string) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, cols := range []int{2, 8} {
		small, large := dumpAllocs(1000, cols), dumpAllocs(2000, cols)
		perStmt := (large - small) / 20
		t.Logf("%d columns: %.0f allocs at 1000 rows, %.0f at 2000: %.2f per section", cols, small, large, perStmt)
		if perStmt > 1.25 {
			t.Errorf("%d columns: %.2f allocs per section, want at most about 1", cols, perStmt)
		}
	}
}

// BenchmarkDumpStream measures Step 1's scan-and-render: a 2,000-row,
// six-column table dumped in DUMP STREAM's default chunks.
func BenchmarkDumpStream(b *testing.B) {
	s := restoreSource(b, 2000, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.DumpStream(DefaultDumpChunk, func([]string) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// restoreChunkAllocs returns the objects and bytes applying chunk — a
// dump's row chunk — allocates when it is applied as a restore applier sends
// it, joined into one row statement in autocommit, into a fresh database
// made from schema; the least of three runs, so a collection mid-run does
// not count.
func restoreChunkAllocs(tb testing.TB, schema, chunk []string) (objects, bytes uint64) {
	e := New(Options{LockTimeout: time.Second})
	defer e.Close()
	objects, bytes = math.MaxUint64, math.MaxUint64
	for run := 0; run < 3; run++ {
		if err := e.CreateDatabase("dst"); err != nil {
			tb.Fatal(err)
		}
		s, _ := e.NewSession("dst")
		for _, stmt := range schema {
			if _, err := s.Exec(stmt); err != nil {
				tb.Fatal(err)
			}
		}
		joined := strings.Join(chunk, "")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := s.ExecLent(joined); err != nil {
			tb.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		s.Close()
		if err := e.DropDatabase("dst"); err != nil {
			tb.Fatal(err)
		}
	}
	return objects, bytes
}

// TestRestoreChunkAllocs pins what a restore allocates per row: a block of
// 64 keys is filed in one hold of its stripe, its rows' bytes copied into
// the table's pages as they arrived, each row a chain from an array of
// chains that holds its first version itself and takes its row lock there,
// the chain directory filing the block in one entry; a row statement is
// decoded only to check it, into the session's write row, never parsed or
// encoded again. So a 2,000-row chunk costs its pages, its chains, the
// directory's blocks and the transaction's lock list, well under one object
// and about 300 bytes per row: 290 objects and 597 KB, bound at 320 and
// 660 KB.
func TestRestoreChunkAllocs(t *testing.T) {
	const rows = 2000
	src := restoreSource(t, rows, 6)
	var chunks [][]string
	if _, err := src.DumpStream(0, func(stmts []string) error {
		chunks = append(chunks, stmts)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	objects, bytes := restoreChunkAllocs(t, chunks[0], chunks[1])
	t.Logf("a %d-row chunk in %d statements: %d allocations, %.2f per row; %d bytes, %.0f per row",
		rows, len(chunks[1]), objects, float64(objects)/rows, bytes, float64(bytes)/rows)
	const bound, byteBound = 320, 660 << 10
	if objects > bound {
		t.Errorf("a %d-row chunk allocates %d objects, want at most %d", rows, objects, bound)
	}
	if bytes > byteBound {
		t.Errorf("a %d-row chunk allocates %d KB, want at most %d KB", rows, bytes>>10, byteBound>>10)
	}
}

// BenchmarkRestoreChunk measures Step 2's apply of one chunk the way a
// restore applier runs it: the chunk's row statements (2,000 rows of six
// columns) joined into one, applied in autocommit, into a fresh database
// each time.
func BenchmarkRestoreChunk(b *testing.B) {
	src := restoreSource(b, 2000, 6)
	var chunks [][]string
	if _, err := src.DumpStream(0, func(stmts []string) error {
		chunks = append(chunks, stmts)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	schema, rows := chunks[0], strings.Join(chunks[1], "")
	e := New(Options{LockTimeout: time.Second})
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := e.CreateDatabase("dst"); err != nil {
			b.Fatal(err)
		}
		s, _ := e.NewSession("dst")
		for _, stmt := range schema {
			if _, err := s.Exec(stmt); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := s.Exec(rows); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s.Close()
		if err := e.DropDatabase("dst"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// TestRestoreRefusesMalformedRows: a restored row is checked on its
// encoding alone, and refused with the error a full decode and CheckRow
// gave it: a NULL primary key, a value of another kind than its column's,
// a BOOL other than 0 or 1, and a TEXT that runs past its section. Each is
// one byte or one slot edited in a real row statement of (1, TRUE,
// 'hello'), which is accepted as it stands; a refused one leaves no row.
func TestRestoreRefusesMalformedRows(t *testing.T) {
	e := New(Options{})
	t.Cleanup(e.Close)
	if err := e.CreateDatabase("src"); err != nil {
		t.Fatal(err)
	}
	src, _ := e.NewSession("src")
	mustExec(t, src, "CREATE TABLE t (id INT PRIMARY KEY, b BOOL, s TEXT)")
	mustExec(t, src, "INSERT INTO t (id, b, s) VALUES (1, TRUE, 'hello')")
	var stmt string
	if _, err := src.DumpStream(0, func(stmts []string) error {
		if IsRowStatement(stmts[0]) {
			stmt = stmts[0]
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// A section's head is 0x00, the u16 name length, "t" and the u32 row
	// bytes: 8 bytes. The row is 3 kind bytes, 3 slots of 8 and "hello".
	const row, slots = 8, 8 + 3
	if len(stmt) != row+3+3*8+len("hello") {
		t.Fatalf("the row statement has %d bytes, want the one row", len(stmt))
	}
	edit := func(fn func(b []byte)) string {
		b := []byte(stmt)
		fn(b)
		return string(b)
	}
	for _, tc := range []struct {
		name, stmt, err string
	}{
		{"as dumped", stmt, ""},
		{"NULL primary key", edit(func(b []byte) {
			b[row] = byte(sqlmini.KindNull)
			clear(b[slots : slots+8])
		}), "storage: table t: NULL primary key"},
		{"TEXT in an INT column", edit(func(b []byte) { b[row] = byte(sqlmini.KindText) }),
			"mvcc: table t: column id: malformed TEXT"},
		{"BOOL of 2", edit(func(b []byte) { b[slots+8] = 2 }), "mvcc: table t: column b: malformed BOOL"},
		{"TEXT past its section", edit(func(b []byte) { b[slots+16+4]++ }), "mvcc: table t: column s: malformed TEXT"},
	} {
		if err := e.CreateDatabase("dst"); err != nil {
			t.Fatal(err)
		}
		dst, _ := e.NewSession("dst")
		mustExec(t, dst, "CREATE TABLE t (id INT PRIMARY KEY, b BOOL, s TEXT)")
		_, err := dst.Exec(tc.stmt)
		if got := fmt.Sprint(err); tc.err == "" && err != nil || tc.err != "" && got != tc.err {
			t.Errorf("%s: %v, want %q", tc.name, err, tc.err)
		}
		want := 0
		if tc.err == "" {
			want = 1
		}
		if n, err := dst.RowCount("t"); err != nil || n != want {
			t.Errorf("%s: %d rows visible (%v), want %d", tc.name, n, err, want)
		}
		dst.Close()
		if err := e.DropDatabase("dst"); err != nil {
			t.Fatal(err)
		}
	}
}
