package wire_test

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"madeus/internal/engine"
	"madeus/internal/metrics"
	"madeus/internal/testutil"
	"madeus/internal/tpcw"
	"madeus/internal/wire"
)

// lentTwin runs every statement on two engines holding the same tenant: as
// a node answers it, through a wire session that encodes the result its
// engine session lends (EngineHandler), and through Session.Exec on the
// twin engine, whose owned result AppendResult encodes. It fails the test
// unless the two payloads, or the two errors, are the same.
type lentTwin struct {
	t     *testing.T
	node  wire.Conn
	owned *engine.Session
	reply []byte

	commitsLeft int // a TPC-W stream stops after this many COMMITs
	stop        context.CancelFunc
}

func (w *lentTwin) Exec(sql string) (*engine.Result, error) {
	w.t.Helper()
	var err error
	w.reply, err = w.node.Exec(sql, w.reply[:0])
	res, ownedErr := w.owned.Exec(sql)
	switch {
	case err != nil || ownedErr != nil:
		if err == nil || ownedErr == nil || err.Error() != ownedErr.Error() {
			w.t.Fatalf("%s:\n lent:  %v\n owned: %v", sql, err, ownedErr)
		}
		return nil, err
	case !bytes.Equal(w.reply, wire.AppendResult(nil, res)):
		w.t.Fatalf("%s: lent reply %x, owned %x", sql, w.reply, wire.AppendResult(nil, res))
	}
	if sql == "COMMIT" && w.stop != nil {
		if w.commitsLeft--; w.commitsLeft == 0 {
			w.stop()
		}
	}
	return res, nil
}

// TestLentRepliesMatchOwned: a node's reply, encoded from a result its
// session lends out of buffers it reuses, is byte for byte the reply an
// owned result encodes to. Seeded TPC-W streams (browsing and ordering
// mixes) run through one twin; the edge cases follow — top-k and LIMIT 0,
// the aggregates, empty results, results above the 64 KiB the session keeps
// followed by small ones, a poisoned transaction, DDL and DUMP, and two
// sessions interleaved on each engine.
func TestLentRepliesMatchOwned(t *testing.T) {
	testutil.CheckGoroutines(t)
	const db = "shop"
	node, twin := engine.New(engine.Options{}), engine.New(engine.Options{})
	defer node.Close()
	defer twin.Close()
	for _, e := range []*engine.Engine{node, twin} {
		if err := e.CreateDatabase(db); err != nil {
			t.Fatal(err)
		}
	}
	open := func() *lentTwin {
		c, err := wire.EngineHandler(node).Connect(db)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		s, err := twin.NewSession(db)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return &lentTwin{t: t, node: c, owned: s}
	}

	a := open()
	// 600 items: SELECT * over them is 3,600 values, 112 KiB of them.
	scale := tpcw.Scale{Items: 600, Customers: 100, Authors: 50}
	if err := tpcw.Load(a, scale); err != nil {
		t.Fatal(err)
	}
	rec := metrics.NewRecorder()
	defer rec.Close()
	for i, mix := range []tpcw.Mix{tpcw.Browsing, tpcw.Ordering} {
		ctx, cancel := context.WithCancel(context.Background())
		a.commitsLeft, a.stop = 150, cancel
		eb := &tpcw.EB{ID: i + 1, Mix: mix, Scale: scale, Seed: int64(31 + i)}
		err := eb.Run(ctx, a, rec)
		cancel()
		if err != nil {
			t.Fatalf("%s stream: %v", mix.Name, err)
		}
	}
	a.stop = nil

	b := open()
	for _, step := range []struct {
		s       *lentTwin
		sql     string
		wantErr bool
	}{
		{a, "SELECT i_id, i_cost FROM item ORDER BY i_cost DESC LIMIT 5", false},
		{a, "SELECT i_id, i_title FROM item WHERE i_subject = 'ARTS' ORDER BY i_stock LIMIT 3", false},
		{a, "SELECT i_id FROM item ORDER BY i_stock LIMIT 0", false},
		{a, "SELECT * FROM item LIMIT 0", false},
		{a, "SELECT COUNT(*) FROM item WHERE i_stock > 10", false},
		{a, "SELECT SUM(i_cost) FROM item", false},
		{a, "SELECT SUM(i_stock) FROM item WHERE i_id < 0", false},
		{a, "SELECT * FROM item WHERE i_id = -1", false},
		{a, "SELECT * FROM item", false},
		{a, "SELECT i_title, i_cost FROM item WHERE i_id = 7", false},
		{a, "SELECT * FROM item ORDER BY i_title", false},
		{a, "SELECT i_id FROM item ORDER BY i_cost LIMIT 2", false},

		// A poisoned transaction, and transaction control out of place.
		{a, "BEGIN", false},
		{a, "BEGIN", true},
		{a, "SELECT i_stock FROM item WHERE i_id = 1", false},
		{a, "SELECT nope FROM item", true},
		{a, "SELECT i_stock FROM item WHERE i_id = 1", true},
		{a, "COMMIT", false}, // ROLLBACK
		{a, "ROLLBACK", true},

		// DDL, writes and DUMP.
		{a, "CREATE TABLE extra (x INT PRIMARY KEY, y TEXT)", false},
		{a, "CREATE INDEX extra_y ON extra (y)", false},
		{a, "INSERT INTO extra (x, y) VALUES (1, 'a'), (2, 'b'), (3, NULL)", false},
		{a, "UPDATE extra SET y = 'c' WHERE x = 1", false},
		{a, "DELETE FROM extra WHERE x = 2", false},
		{a, "SELECT * FROM extra WHERE y = 'c'", false},
		{a, "DROP INDEX extra_y ON extra", false},
		{a, "DUMP", false},
		{a, "DUMP STREAM", false},
		{a, "DROP TABLE extra", false},
		{a, "SELECT * FROM extra", true},

		// Two sessions interleaved on each engine: each lends from its own
		// buffers.
		{a, "BEGIN", false},
		{b, "BEGIN", false},
		{a, "SELECT * FROM item ORDER BY i_stock DESC LIMIT 20", false},
		{b, "SELECT i_title, i_cost FROM item WHERE i_id = 9", false},
		{a, "UPDATE item SET i_stock = i_stock + 1 WHERE i_id = 9", false},
		{b, "SELECT * FROM item", false},
		{a, "SELECT i_stock FROM item WHERE i_id = 9", false},
		{b, "SELECT i_stock FROM item WHERE i_id = 9", false},
		{a, "COMMIT", false},
		{b, "SELECT COUNT(*) FROM item", false},
		{b, "COMMIT", false},
	} {
		if _, err := step.s.Exec(step.sql); (err != nil) != step.wantErr {
			t.Fatalf("%s: error %v, want error %v", step.sql, err, step.wantErr)
		}
	}
}

// TestStreamChunksOutliveTheirFrames: a restore chunk waits in a slave's
// queue while its connection reads on, so the statements a stream hands its
// sink must alias a frame of their own, never the connection's read buffer.
// Chunks below and above the 64 KiB a connection keeps are held unapplied
// while the rest of the stream, other queries and a second stream are read
// on the same connection; every held chunk must still be the bytes a dump
// of the same state makes.
func TestStreamChunksOutliveTheirFrames(t *testing.T) {
	testutil.CheckGoroutines(t)
	e := engine.New(engine.Options{DumpBatch: 10})
	defer e.Close()
	if err := e.CreateDatabase("db"); err != nil {
		t.Fatal(err)
	}
	s, err := e.NewSession("db")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	big := strings.Repeat("x", 8<<10) // ten rows of it: a chunk above 64 KiB
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
	var want [][]string
	if _, err := s.DumpStream(1, func(stmts []string) error {
		want = append(want, stmts)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	srv, err := wire.Listen("127.0.0.1:0", wire.EngineHandler(e))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := wire.Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var held [][]string
	if _, err := c.ExecStream("DUMP STREAM 1", func(_ uint32, stmts []string) error {
		held = append(held, stmts)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("SELECT * FROM small"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecStream("DUMP STREAM 1", func(uint32, []string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("SELECT v FROM big WHERE id = 3"); err != nil {
		t.Fatal(err)
	}

	if len(held) != len(want) {
		t.Fatalf("held %d chunks, the dump makes %d", len(held), len(want))
	}
	sizes := map[bool]int{} // chunks above 64 KiB, and below
	for i := range want {
		if !slices.Equal(held[i], want[i]) {
			t.Fatalf("chunk %d changed after its connection read on", i)
		}
		sizes[len(strings.Join(want[i], "")) > 64<<10]++
	}
	if sizes[true] == 0 || sizes[false] < 2 {
		t.Fatalf("chunks above and below 64 KiB: %d and %d, want both", sizes[true], sizes[false])
	}
}
