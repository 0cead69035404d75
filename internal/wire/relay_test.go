package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"madeus/internal/engine"
	"madeus/internal/sqlmini"
	"madeus/internal/testutil"
)

// fixedConn is a stub session that answers every statement with one fixed
// MsgResult payload, so a round trip costs only the wire's own work.
type fixedConn struct{ reply []byte }

func (f fixedConn) Exec(_ string, dst []byte) ([]byte, error) { return append(dst, f.reply...), nil }
func (fixedConn) Close()                                      {}

func fixedHandler(reply []byte) Handler {
	return HandlerFunc(func(string) (Conn, error) { return fixedConn{reply}, nil })
}

// pointRead is the encoded reply of a TPC-W point read.
func pointRead() []byte {
	return AppendResult(nil, &engine.Result{
		Tag:     "SELECT 1",
		Columns: []string{"i_title", "i_cost"},
		Rows:    [][]sqlmini.Value{{sqlmini.NewText("The Go Programming Language"), sqlmini.NewFloat(31.5)}},
	})
}

const pointReadSQL = "SELECT i_title, i_cost FROM item WHERE i_id = 7"

// TestRoundTripAllocs pins the relay's allocation budget: once the read
// buffers have grown and the frame pool is warm, a whole ExecReply round
// trip — client encode and write, server read, session, server encode and
// write, client read — allocates at most the server's copy of the SQL text,
// which a session that is not a node's gets (the stub here), and Exec adds
// only what DecodeResult allocates.
func TestRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	testutil.CheckGoroutines(t)
	reply := pointRead()
	srv, err := Listen("127.0.0.1:0", fixedHandler(reply))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	execReply := func() {
		got, err := c.ExecReply(pointReadSQL)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, reply) {
			t.Fatalf("reply %x, want %x", got, reply)
		}
	}
	execReply() // sizes both read buffers and fills the frame pool
	perReply := testing.AllocsPerRun(200, execReply)
	if perReply > 1 {
		t.Errorf("ExecReply round trip allocates %.0f objects, want at most 1 (the server's SQL string)", perReply)
	}
	perDecode := testing.AllocsPerRun(200, func() {
		if _, err := DecodeResult(reply); err != nil {
			t.Fatal(err)
		}
	})
	perExec := testing.AllocsPerRun(200, func() {
		if _, err := c.Exec(pointReadSQL); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per round trip: ExecReply %.0f, DecodeResult %.0f, Exec %.0f", perReply, perDecode, perExec)
	if perExec > perReply+perDecode {
		t.Errorf("Exec round trip allocates %.0f objects, want at most ExecReply's %.0f plus DecodeResult's %.0f",
			perExec, perReply, perDecode)
	}
}

// countingConn counts the writes that reach a connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

// TestOneWritePerFrame: a frame smaller than the bufio buffer reaches the
// socket in one write, in each direction — header and payload leave
// together in the Flush that ends the frame.
func TestOneWritePerFrame(t *testing.T) {
	testutil.CheckGoroutines(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var served, sent atomic.Int64
	srv := listenOn(countingListener{ln, &served}, fixedHandler(pointRead()))
	defer srv.Close()
	c, err := Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.conn = countingConn{c.conn, &sent}
	c.bw = bufio.NewWriter(c.conn)

	const n = 20
	for i := 0; i < n; i++ {
		if _, err := c.ExecReply(pointReadSQL); err != nil {
			t.Fatal(err)
		}
	}
	// A streaming query against a session without a streaming form: one
	// query frame, one chunkless trailer.
	if _, err := c.ExecStream(pointReadSQL, func(uint32, []string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := sent.Load(); got != n+1 {
		t.Errorf("client made %d writes for %d query frames, want one per frame", got, n+1)
	}
	c.Close()
	srv.Close() // waits for the session: every server write has happened
	if got := served.Load(); got != n+2 {
		t.Errorf("server made %d writes for %d frames (MsgReady and the replies), want one per frame", got, n+2)
	}
}

// TestReadBufferKeptOnlyWhileSmall: readMsg reuses a connection's buffer
// frame after frame, but a payload above maxKeptFrame gets a buffer of its
// own that the connection does not keep.
func TestReadBufferKeptOnlyWhileSmall(t *testing.T) {
	small, large := bytes.Repeat([]byte{'s'}, 100), bytes.Repeat([]byte{'L'}, maxKeptFrame+1)
	var stream bytes.Buffer
	bw := bufio.NewWriter(&stream)
	for _, p := range [][]byte{small, large, small} {
		if err := writeMsg(bw, MsgResult, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(&stream)
	var buf []byte
	read := func(want []byte) {
		t.Helper()
		typ, got, err := readMsg(br, &buf)
		if err != nil || typ != MsgResult || !bytes.Equal(got, want) {
			t.Fatalf("readMsg = %c, %d bytes, %v; want the %d-byte frame", typ, len(got), err, len(want))
		}
	}
	read(small)
	kept := &buf[:1][0]
	read(large)
	if cap(buf) > maxKeptFrame {
		t.Errorf("connection kept a %d-byte buffer after a %d-byte frame", cap(buf), len(large))
	}
	read(small)
	if &buf[:1][0] != kept {
		t.Error("the frame after a large one did not reuse the kept buffer")
	}
}

// TestFrameBufPoolKeepsOnlySmall: the encode-buffer pool takes back a
// buffer of at most maxKeptFrame and drops a larger one, the bound the read
// side keeps, so a stream chunk's or a large result's buffer is never handed
// to the next small frame.
func TestFrameBufPoolKeepsOnlySmall(t *testing.T) {
	for i := 0; i < 10; i++ {
		f := getFrameBuf()
		f.buf = append(f.buf, make([]byte, maxKeptFrame+1)...)
		putFrameBuf(f)
		if got := getFrameBuf(); cap(got.buf) > maxKeptFrame {
			t.Fatalf("the pool handed out a %d-byte buffer, want at most %d", cap(got.buf), maxKeptFrame)
		}
	}
}

// chunkConn is a stub streaming session: every streaming query emits the
// same chunks, then answers with reply.
type chunkConn struct {
	fixedConn
	chunks [][]string
}

func (c chunkConn) ExecStream(_ string, emit func([]string) error, dst []byte) ([]byte, bool, error) {
	for _, stmts := range c.chunks {
		if err := emit(stmts); err != nil {
			return dst, true, err
		}
	}
	return append(dst, c.reply...), true, nil
}

// TestStreamChunksShareOneBuffer: a streaming query encodes all its chunk
// frames into one buffer of its own, so a stream of chunks far above
// maxKeptFrame, which the frame pool does not keep, grows one buffer, not
// one per chunk.
func TestStreamChunksShareOneBuffer(t *testing.T) {
	stmts := make([]string, 100) // a 100 KB chunk
	for i := range stmts {
		stmts[i] = strings.Repeat("x", 1000)
	}
	const n = 64
	sess := chunkConn{fixedConn: fixedConn{pointRead()}}
	for i := 0; i < n; i++ {
		sess.chunks = append(sess.chunks, stmts)
	}
	bw := bufio.NewWriter(io.Discard)
	var dst []byte
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if dst, err = execStream(sess, bw, "DUMP STREAM", dst[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= n {
		t.Errorf("a stream of %d chunks allocates %.0f objects, want fewer than one per chunk", n, allocs)
	}
}

func TestResultTagIs(t *testing.T) {
	commit := AppendResult(nil, &engine.Result{Tag: "COMMIT"})
	for _, tc := range []struct {
		payload []byte
		tag     string
		want    bool
	}{
		{commit, "COMMIT", true},
		{commit, "ROLLBACK", false},
		{commit, "COMMI", false},
		{AppendResult(nil, &engine.Result{Tag: "COMMITTED"}), "COMMIT", false},
		{commit[:6], "COMMIT", false},
		{nil, "", false},
	} {
		if got := ResultTagIs(tc.payload, tc.tag); got != tc.want {
			t.Errorf("ResultTagIs(%q, %q) = %v, want %v", tc.payload, tc.tag, got, tc.want)
		}
	}
}

// TestNodeExecAllocs pins what a node allocates to answer a statement:
// engineConn.Exec has its session build the result in buffers the session
// keeps (Session.ExecLent) and encodes it into the frame at once, so a warm
// statement allocates what its MVCC transaction does and nothing for its
// result.
func TestNodeExecAllocs(t *testing.T) {
	e := engine.New(engine.Options{})
	defer e.Close()
	if err := e.CreateDatabase("shop"); err != nil {
		t.Fatal(err)
	}
	conn, err := EngineHandler(e).Connect("shop")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var dst []byte
	exec := func(sql string) {
		if dst, err = conn.Exec(sql, dst[:0]); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	exec("CREATE TABLE item (i_id INT PRIMARY KEY, i_title TEXT, i_cost FLOAT, i_stock INT)")
	for id := 1; id <= 100; id++ {
		exec(fmt.Sprintf("INSERT INTO item (i_id, i_title, i_cost, i_stock) VALUES (%d, 'title %d', %d.5, %d)", id, id, id, id*7%100))
	}
	for _, tc := range []struct {
		name  string
		stmts []string
		max   float64
	}{
		{"autocommit point SELECT", []string{pointReadSQL}, 2},
		{"ORDER BY LIMIT 1", []string{"SELECT i_title FROM item ORDER BY i_cost DESC LIMIT 1"}, 2},
		{"COUNT(*)", []string{"SELECT COUNT(*) FROM item WHERE i_stock > 50"}, 2},
		{"BEGIN, point SELECT, COMMIT", []string{"BEGIN", pointReadSQL, "COMMIT"}, 2},
	} {
		run := func() {
			for _, sql := range tc.stmts {
				exec(sql)
			}
		}
		run() // fills the parse cache and sizes the session's buffers
		if got := testing.AllocsPerRun(100, run); got > tc.max {
			t.Errorf("%s allocates %.0f objects, want at most %.0f", tc.name, got, tc.max)
		}
	}

	// A point SELECT of a new text every run, as a key space wider than
	// any cache of texts makes nearly every one, costs what a repeated one
	// does: the parse cache keys on the statement's shape.
	const point = "SELECT i_title, i_cost FROM item WHERE i_id = %d AND i_stock > -%d"
	texts := make([]string, 102)
	for i := range texts {
		texts[i] = fmt.Sprintf(point, i%100+1, i+1)
	}
	repeated := testing.AllocsPerRun(100, func() { exec(texts[0]) })
	next := 0
	fresh := testing.AllocsPerRun(100, func() { exec(texts[next]); next++ })
	t.Logf("point SELECT allocates %.0f objects repeated, %.0f with a new text each run", repeated, fresh)
	if fresh > repeated || fresh > 2 {
		t.Errorf("a point SELECT of a new text allocates %.0f objects, want at most the repeated one's %.0f, and at most 2", fresh, repeated)
	}
}
