package wire

import (
	"bufio"
	"bytes"
	"net"
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
// and Exec adds only what DecodeResult allocates.
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
