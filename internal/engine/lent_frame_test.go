package engine_test

import (
	"fmt"
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
