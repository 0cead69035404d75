package engine_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"madeus/internal/engine"
	"madeus/internal/testutil"
	"madeus/internal/wal"
	"madeus/internal/wire"
)

// TestRetainedRecordsOutliveTheirFrames: a node applies a row statement from
// the wire frame it arrived in, so the redo record of one names bytes the
// connection reads its next frame into, and a log that keeps records past
// the append must keep copies. Row statements below and above the 64 KiB a
// connection keeps are applied through a node, more frames are read on the
// same connection, and every kept record must still be the statement sent.
func TestRetainedRecordsOutliveTheirFrames(t *testing.T) {
	testutil.CheckGoroutines(t)
	src := engine.New(engine.Options{DumpBatch: 10})
	defer src.Close()
	if err := src.CreateDatabase("db"); err != nil {
		t.Fatal(err)
	}
	s, err := src.NewSession("db")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	big := strings.Repeat("x", 8<<10) // ten rows of it: a statement above 64 KiB
	for _, q := range []string{
		"CREATE TABLE small (id INT PRIMARY KEY, v TEXT)",
		"CREATE TABLE big (id INT PRIMARY KEY, v TEXT)",
	} {
		if _, err := s.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		for _, q := range []string{
			fmt.Sprintf("INSERT INTO small (id, v) VALUES (%d, 'row %d')", i, i),
			fmt.Sprintf("INSERT INTO big (id, v) VALUES (%d, '%d%s')", i, i, big),
		} {
			if _, err := s.Exec(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	script, err := s.Dump()
	if err != nil {
		t.Fatal(err)
	}

	node := engine.New(engine.Options{WAL: wal.Options{RetainRecords: 1 << 10}})
	defer node.Close()
	if err := node.CreateDatabase("db"); err != nil {
		t.Fatal(err)
	}
	srv, err := wire.Listen("127.0.0.1:0", wire.EngineHandler(node))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := wire.Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var sent []string
	for _, stmt := range script {
		if _, err := c.Exec(stmt); err != nil {
			t.Fatal(err)
		}
		if engine.IsRowStatement(stmt) {
			sent = append(sent, stmt)
		}
	}
	for _, q := range []string{"SELECT * FROM small", "SELECT v FROM big WHERE id = 3", "SELECT COUNT(*) FROM big"} {
		if _, err := c.Exec(q); err != nil {
			t.Fatal(err)
		}
	}

	var kept []string
	for _, r := range engine.RetainedRecords(node) {
		if engine.IsRowStatement(r.Data) {
			kept = append(kept, r.Data)
		}
	}
	if len(kept) != len(sent) {
		t.Fatalf("the log kept %d row statements, %d were sent", len(kept), len(sent))
	}
	sizes := map[bool]int{} // statements above 64 KiB, and below
	for i := range sent {
		if kept[i] != sent[i] {
			t.Fatalf("the record of row statement %d changed after its connection read on", i)
		}
		sizes[len(sent[i]) > 64<<10]++
	}
	if sizes[true] == 0 || sizes[false] < 2 {
		t.Fatalf("statements above and below 64 KiB: %d and %d, want both", sizes[true], sizes[false])
	}
}

// TestQueriesOutliveTheirFrames: a node runs every query from the wire frame
// it arrived in, with no copy, so whatever outlives the call must own its
// bytes: the names DDL gives the catalog, the parse cache's statements and
// the log's records. Each statement below is sent through a node and then
// scribbled over by a query as long, which the connection reads into the
// same buffer; the node must end up exactly as an engine that was handed
// each statement as a string of its own.
func TestQueriesOutliveTheirFrames(t *testing.T) {
	testutil.CheckGoroutines(t)
	stmts := []string{
		"CREATE TABLE item (i_id INT PRIMARY KEY, i_title TEXT, i_cost FLOAT)",
		"CREATE TABLE gone (g_id INT PRIMARY KEY)",
		"CREATE INDEX item_title ON item (i_title)",
		"INSERT INTO item (i_id, i_title, i_cost) VALUES (1, 'one', 1.5), (2, 'two', 2.5)",
		"INSERT INTO item (i_id, i_title, i_cost) VALUES (3, 'three', 3.5)",
		"UPDATE item SET i_title = 'uno' WHERE i_id = 1",
		"SELECT i_title FROM item WHERE i_title = 'two'",
		"SELECT i_title, i_cost FROM item WHERE i_id = 3",
		"DELETE FROM item WHERE i_id = 2",
		"SELECT i_title FROM item WHERE",
		"DROP TABLE gone",
		"CREATE DATABASE other",
		"DROP DATABASE other",
		"CREATE DATABASE kept",
	}
	// The cached shapes again, with new literals.
	again := []string{
		"INSERT INTO item (i_id, i_title, i_cost) VALUES (4, 'four', 4.5)",
		"UPDATE item SET i_title = 'dos' WHERE i_id = 4",
		"SELECT i_title FROM item WHERE i_title = 'dos'",
		"SELECT i_title, i_cost FROM item WHERE i_id = 1",
	}
	open := func() *engine.Engine {
		e := engine.New(engine.Options{WAL: wal.Options{RetainRecords: 1 << 10}})
		if err := e.CreateDatabase("db"); err != nil {
			t.Fatal(err)
		}
		return e
	}

	ref := open()
	defer ref.Close()
	rs, err := ref.NewSession("db")
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	var want []string
	for _, q := range append(slices.Clone(stmts), again...) {
		res, err := rs.Exec(strings.Clone(q))
		want = append(want, fmt.Sprint(res, err))
	}

	node := open()
	defer node.Close()
	srv, err := wire.Listen("127.0.0.1:0", wire.EngineHandler(node))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := wire.Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A second session runs the cached shapes again: the parse cache is
	// the tenant's, and must not alias the first session's buffers either.
	c2, err := wire.Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	db, _ := node.Database("db")
	var got []string
	var hits uint64
	for i, q := range append(slices.Clone(stmts), again...) {
		if i == len(stmts) {
			hits = db.ParseCacheStats().Hits
			c = c2
		}
		res, err := c.Exec(q)
		if se := (*wire.ServerError)(nil); errors.As(err, &se) {
			err = errors.New(se.Msg)
		}
		got = append(got, fmt.Sprint(res, err))
		// An identifier as long as q, read into the frame q was: a parse
		// error, which changes nothing.
		if _, err := c.Exec(strings.Repeat("Z", len(q))); err == nil {
			t.Fatal("the scribble parsed")
		}
	}
	if n := db.ParseCacheStats().Hits - hits; n != uint64(len(again)) {
		t.Errorf("%d of the %d statements of a cached shape hit the parse cache", n, len(again))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("statement %d through the node:\n got %s\nwant %s", i, got[i], want[i])
		}
	}

	dump := func(e *engine.Engine) []string {
		s, err := e.NewSession("db")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		script, err := s.Dump()
		if err != nil {
			t.Fatal(err)
		}
		return script
	}
	if g, w := dump(node), dump(ref); !slices.Equal(g, w) {
		t.Errorf("the node dumps\n  %q\nthe reference\n  %q", g, w)
	}
	if g, w := node.Databases(), ref.Databases(); !slices.Equal(g, w) {
		t.Errorf("the node's databases are %q, the reference's %q", g, w)
	}
	records := func(e *engine.Engine) []string {
		var out []string
		for _, r := range engine.RetainedRecords(e) {
			out = append(out, fmt.Sprintf("%v %q %q %q", r.Kind, r.DB, r.Table, r.Data))
		}
		return out
	}
	if g, w := records(node), records(ref); !slices.Equal(g, w) {
		t.Errorf("the node's log kept\n  %q\nthe reference's\n  %q", g, w)
	}
}
