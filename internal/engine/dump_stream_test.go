package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestDumpStreamMatchesDump: the chunked iterator must yield exactly the
// monolithic dump's schema and rows, in order, for every chunk size, in the
// shape restorers rely on: chunk 0 is the whole schema and nothing else,
// every later chunk is one row statement of at most chunkSize of Dump's
// (chunkSize 0: all of Dump's row statements).
func TestDumpStreamMatchesDump(t *testing.T) {
	e := newTestEngine(t)
	s, _ := e.NewSession("shop")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
	mustExec(t, s, "CREATE INDEX t_name ON t (name)")
	for i := 0; i < 25; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t (id, name) VALUES (%d, 'n%d')", i, i))
	}
	mustExec(t, s, "CREATE TABLE u (id INT PRIMARY KEY)")
	mustExec(t, s, "INSERT INTO u (id) VALUES (1), (2)")
	mustExec(t, s, "CREATE TABLE empty (id INT PRIMARY KEY)")
	mustExec(t, s, "CREATE TABLE idxonly (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "CREATE INDEX idxonly_v ON idxonly (v)")

	want, err := s.Dump()
	if err != nil {
		t.Fatal(err)
	}
	schema := []string{
		"CREATE TABLE empty (id INT PRIMARY KEY)",
		"CREATE TABLE idxonly (id INT PRIMARY KEY, v INT)",
		"CREATE INDEX idxonly_v ON idxonly (v)",
		"CREATE TABLE t (id INT PRIMARY KEY, name TEXT)",
		"CREATE INDEX t_name ON t (name)",
		"CREATE TABLE u (id INT PRIMARY KEY)",
	}
	if got := strings.Join(want[:len(schema)], "\n"); got != strings.Join(schema, "\n") {
		t.Fatalf("Dump does not open with the whole schema in table order:\n%s", got)
	}
	for _, chunkSize := range []int{1, 2, 7, 64, 0} {
		var chunks [][]string
		total, err := s.DumpStream(chunkSize, func(stmts []string) error {
			chunks = append(chunks, stmts)
			return nil
		})
		if err != nil {
			t.Fatalf("chunk %d: %v", chunkSize, err)
		}
		var got []string
		for i, c := range chunks {
			got = append(got, c...)
			if i == 0 {
				if strings.Join(c, "\n") != strings.Join(schema, "\n") {
					t.Errorf("chunk %d: chunk 0 = %v, want exactly the schema", chunkSize, c)
				}
				continue
			}
			if chunkSize > 0 && len(c) != 1 {
				t.Errorf("chunk %d: row chunk %d has %d stmts, want one", chunkSize, i, len(c))
			}
			for _, stmt := range c {
				if !IsRowStatement(stmt) {
					t.Errorf("chunk %d: %q in row chunk %d", chunkSize, stmt, i)
				} else if n := Sections(stmt); chunkSize > 0 && n > chunkSize {
					t.Errorf("chunk %d: row chunk %d has %d sections", chunkSize, i, n)
				}
			}
		}
		if total != len(got) {
			t.Errorf("chunk %d: total %d, sunk %d", chunkSize, total, len(got))
		}
		if strings.Join(got, "") != strings.Join(want, "") {
			t.Errorf("chunk %d: stream differs from Dump:\n got %v\nwant %v", chunkSize, got, want)
		}
		if chunkSize <= 0 && len(chunks) != 2 {
			t.Errorf("unbounded stream made %d chunks, want 2 (schema, rows)", len(chunks))
		}
	}

	// Restore(Dump()) round-trips the schema-first script, empty and
	// index-only tables included.
	if err := e.CreateDatabase("copy"); err != nil {
		t.Fatal(err)
	}
	cp, _ := e.NewSession("copy")
	if err := cp.Restore(want); err != nil {
		t.Fatal(err)
	}
	if eq, diff, err := StateEqual(s, cp); err != nil || !eq {
		t.Fatalf("StateEqual after Restore(Dump()) = %v, %v: %s", eq, err, diff)
	}
	// A difference is reported as the INSERT text of the rows that differ.
	mustExec(t, cp, "DELETE FROM u WHERE id = 2")
	mustExec(t, cp, "INSERT INTO u (id) VALUES (3)")
	eq, diff, err := StateEqual(s, cp)
	if err != nil || eq || !strings.Contains(diff, "a: INSERT INTO u (id) VALUES (1), (2)\n  b: INSERT INTO u (id) VALUES (1), (3)") {
		t.Errorf("StateEqual after an UPDATE = %v, %v: %s", eq, err, diff)
	}
}

// sqlText renders a script's row statements as INSERT text.
func sqlText(t *testing.T, s *Session, script []string) []string {
	t.Helper()
	out := make([]string, len(script))
	for i, stmt := range script {
		out[i] = stmt
		if !IsRowStatement(stmt) {
			continue
		}
		name, rows, rest, err := nextSection([]byte(stmt))
		if err != nil || len(rest) > 0 {
			t.Fatalf("a dump line is not one section: %v", err)
		}
		tb, ok := s.db.table(string(name))
		if !ok {
			t.Fatalf("no table %s", name)
		}
		text, err := appendRowsSQL(nil, tb, rows)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(text)
	}
	return out
}

// TestDumpStreamSinkError: a failing sink stops the scan and surfaces the
// error without wedging the session.
func TestDumpStreamSinkError(t *testing.T) {
	e := newTestEngine(t)
	s, _ := e.NewSession("shop")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY)")
	mustExec(t, s, "INSERT INTO t (id) VALUES (1), (2), (3), (4)")

	boom := errors.New("sink refused")
	calls := 0
	_, err := s.DumpStream(1, func(stmts []string) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want sink error", err)
	}
	if calls != 2 {
		t.Fatalf("sink called %d times after error, want 2", calls)
	}
	// The session stays usable.
	mustExec(t, s, "SELECT id FROM t")
}

// TestDumpStreamSnapshot: inside a transaction the stream sees the pinned
// snapshot, not concurrent updates.
func TestDumpStreamSnapshot(t *testing.T) {
	e := newTestEngine(t)
	s, _ := e.NewSession("shop")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (1, 1)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "SELECT v FROM t") // pin the snapshot

	other, _ := e.NewSession("shop")
	mustExec(t, other, "UPDATE t SET v = 99 WHERE id = 1")

	var got []string
	if _, err := s.DumpStream(8, func(stmts []string) error {
		got = append(got, stmts...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "COMMIT")
	joined := strings.Join(sqlText(t, s, got), "\n")
	if !strings.Contains(joined, "(1, 1)") || strings.Contains(joined, "99") {
		t.Errorf("stream leaked concurrent update: %v", got)
	}
}

// TestExecStreamMeta: the DUMP STREAM meta command streams chunks through
// ExecStream and reports the statement total in its tag, while plain Exec
// falls back to a full single-result dump for non-streaming transports.
func TestExecStreamMeta(t *testing.T) {
	s := newShopSession(t)
	for i := 0; i < 10; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO items (id, title, cost, stock) VALUES (%d, 't', 1, 1)", i))
	}

	var chunks [][]string
	res, handled, err := s.ExecStream("DUMP STREAM 1", func(stmts []string) error {
		cp := make([]string, len(stmts))
		copy(cp, stmts)
		chunks = append(chunks, cp)
		return nil
	})
	if err != nil || !handled {
		t.Fatalf("ExecStream: handled=%v err=%v", handled, err)
	}
	total := 0
	for _, c := range chunks {
		if len(c) > 1 {
			t.Errorf("chunk of %d stmts, want <= 1", len(c))
		}
		total += len(c)
	}
	if want := fmt.Sprintf("DUMP STREAM %d", total); res.Tag != want {
		t.Errorf("tag = %q, want %q", res.Tag, want)
	}
	if len(chunks) < 2 {
		t.Fatalf("expected multiple chunks, got %d", len(chunks))
	}

	// Non-stream statements are not handled.
	if _, handled, err := s.ExecStream("SELECT id FROM items", nil); handled || err != nil {
		t.Fatalf("SELECT: handled=%v err=%v", handled, err)
	}

	// Plain Exec path: full dump as one result (relay fallback).
	res = mustExec(t, s, "DUMP STREAM 1")
	if len(res.Rows) != total {
		t.Errorf("fallback rows = %d, want %d", len(res.Rows), total)
	}
	if !strings.HasPrefix(res.Tag, "DUMP ") {
		t.Errorf("fallback tag = %q", res.Tag)
	}

	// Bad chunk sizes are usage errors.
	for _, bad := range []string{"DUMP STREAM 0", "DUMP STREAM -1", "DUMP STREAM x", "DUMP STREAM 1 2"} {
		if _, _, err := s.ExecStream(bad, func([]string) error { return nil }); err == nil {
			t.Errorf("%q: want usage error", bad)
		}
	}
}
