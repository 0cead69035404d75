package wire

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"madeus/internal/engine"
	"madeus/internal/testutil"
)

// gatedConn is an engine session that reports each statement as it
// arrives (on entered, when set) and runs it only once open is closed
// (when set).
type gatedConn struct {
	Conn
	entered chan<- struct{}
	open    <-chan struct{}
}

func (g gatedConn) Exec(sql string, dst []byte) ([]byte, error) {
	if g.entered != nil {
		g.entered <- struct{}{}
	}
	if g.open != nil {
		<-g.open
	}
	return g.Conn.Exec(sql, dst)
}

// TestRecycledFramesAreDead: a query frame above maxKeptFrame goes back to
// the process's pool only once the session that runs from it has answered.
// Session a holds a >64 KB literal INSERT of wide TEXT rows unexecuted
// while session b reads and runs a >64 KB statement of other bytes, the
// size class a recycled frame of a's would be handed to; a's rows must then
// read back byte for byte. One P makes the pool hand b the frame a put
// back, if a put it back too early.
func TestRecycledFramesAreDead(t *testing.T) {
	testutil.CheckGoroutines(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := engine.New(engine.Options{})
	defer e.Close()
	if err := e.CreateDatabase("shop"); err != nil {
		t.Fatal(err)
	}
	aIn, bIn, aGo := make(chan struct{}, 1), make(chan struct{}, 1), make(chan struct{})
	node := EngineHandler(e)
	srv, err := Listen("127.0.0.1:0", HandlerFunc(func(db string) (Conn, error) {
		conn, err := node.Connect("shop")
		switch db {
		case "a":
			return gatedConn{Conn: conn, entered: aIn, open: aGo}, err
		case "b":
			return gatedConn{Conn: conn, entered: bIn}, err
		}
		return conn, err
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dial := func(db string) *Client {
		c, err := Dial(srv.Addr(), db)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	shop, a, b := dial("shop"), dial("a"), dial("b")
	if _, err := shop.Exec("CREATE TABLE wide (id INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}

	const rows = 8
	var insert strings.Builder
	insert.WriteString("INSERT INTO wide (id, v) VALUES ")
	want := make([]string, rows)
	for i := range want {
		want[i] = strings.Repeat(string(rune('a'+i)), 10<<10)
		if i > 0 {
			insert.WriteString(", ")
		}
		fmt.Fprintf(&insert, "(%d, '%s')", i, want[i])
	}
	other := "SELECT id FROM wide WHERE v = '" + strings.Repeat("z", 90<<10) + "'"
	if len(insert.String()) <= maxKeptFrame || frameClass(len(other)) != frameClass(len(insert.String())) {
		t.Fatalf("statements of %d and %d bytes: want both above %d, in one size class", insert.Len(), len(other), maxKeptFrame)
	}

	inserted := make(chan error, 1)
	go func() {
		res, err := a.Exec(insert.String())
		if err == nil && res.Affected != rows {
			err = fmt.Errorf("INSERT answered %q, %d rows", res.Tag, res.Affected)
		}
		inserted <- err
	}()
	<-aIn // a's session holds its frame and has run none of it
	if res, err := b.Exec(other); err != nil || len(res.Rows) != 0 {
		t.Fatalf("the other statement: %v, %v", res, err)
	}
	<-bIn
	close(aGo)
	if err := <-inserted; err != nil {
		t.Fatalf("the INSERT, run after the other statement was read: %v", err)
	}

	res, err := shop.Exec("SELECT id, v FROM wide ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != rows {
		t.Fatalf("read back %d rows, want %d", len(res.Rows), rows)
	}
	for i, row := range res.Rows {
		if row[0].Int != int64(i) || row[1].Str != want[i] {
			t.Fatalf("row %d reads back (%d, %.20q…), want (%d, %.20q…)", i, row[0].Int, row[1].Str, i, want[i])
		}
	}
}

// largeQuery is a query frame of 100 KB, above maxKeptFrame.
var largeQuery = "SELECT 1 -- " + strings.Repeat("x", 100<<10)

// TestLargeQueryFramesShareBuffers: a server gives a query frame above
// maxKeptFrame back to the pool once it has answered it, so a stream of
// them reads into a few buffers, not one each.
func TestLargeQueryFramesShareBuffers(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv, err := Listen("127.0.0.1:0", fixedHandler(pointRead()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 64
	allocs := testing.AllocsPerRun(5, func() {
		for range n {
			if _, err := c.ExecReply(largeQuery); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("%d query frames of %d bytes allocate %.0f objects", n, len(largeQuery), allocs)
	if allocs >= n {
		t.Errorf("%d query frames above %d bytes allocate %.0f objects, want fewer than one per frame", n, maxKeptFrame, allocs)
	}
}

// BenchmarkLargeQueryFrame is one round trip of a 100 KB query frame
// through a stub session: what a restore statement costs its wire hop.
func BenchmarkLargeQueryFrame(b *testing.B) {
	srv, err := Listen("127.0.0.1:0", fixedHandler(pointRead()))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), "db")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.SetBytes(int64(len(largeQuery)))
	for range b.N {
		if _, err := c.ExecReply(largeQuery); err != nil {
			b.Fatal(err)
		}
	}
}
