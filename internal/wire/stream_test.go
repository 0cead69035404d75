package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"

	"madeus/internal/engine"
)

// TestStreamChunkCodecRoundTrip exercises the chunk/end frame codecs.
func TestStreamChunkCodecRoundTrip(t *testing.T) {
	stmts := []string{"CREATE TABLE t (id INT PRIMARY KEY)", "INSERT INTO t (id) VALUES (1)", ""}
	seq, got, err := DecodeStreamChunk(EncodeStreamChunk(7, stmts))
	if err != nil || seq != 7 {
		t.Fatalf("seq=%d err=%v", seq, err)
	}
	if strings.Join(got, "|") != strings.Join(stmts, "|") {
		t.Fatalf("stmts = %v", got)
	}
	if _, _, err := DecodeStreamChunk([]byte{1, 2}); err == nil {
		t.Error("truncated chunk not detected")
	}

	chunks, res, err := DecodeStreamEnd(EncodeStreamEnd(3, &engine.Result{Tag: "DUMP STREAM 9"}))
	if err != nil || chunks != 3 || res.Tag != "DUMP STREAM 9" {
		t.Fatalf("chunks=%d res=%+v err=%v", chunks, res, err)
	}
	if _, _, err := DecodeStreamEnd([]byte{0}); err == nil {
		t.Error("truncated trailer not detected")
	}
}

// TestExecStreamRoundTrip: a DUMP STREAM against a real engine-backed
// server delivers ordered chunks whose statements reassemble the dump.
func TestExecStreamRoundTrip(t *testing.T) {
	_, srv := newServer(t)
	c, err := Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Exec(fmt.Sprintf("INSERT INTO t (id, name) VALUES (%d, 'n%d')", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	full, err := c.Exec("DUMP STREAM")
	if err != nil {
		t.Fatal(err)
	}

	var got []string
	var lastSeq uint32
	nChunks := 0
	res, err := c.ExecStream("DUMP STREAM 1", func(seq uint32, stmts []string) error {
		if seq != uint32(nChunks) {
			t.Errorf("chunk seq %d, want %d", seq, nChunks)
		}
		lastSeq = seq
		nChunks++
		got = append(got, stmts...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = lastSeq
	if want := fmt.Sprintf("DUMP STREAM %d", len(got)); res.Tag != want {
		t.Errorf("tag = %q, want %q", res.Tag, want)
	}
	if len(got) != len(full.Rows) {
		t.Fatalf("streamed %d stmts, full dump has %d", len(got), len(full.Rows))
	}
	for i, row := range full.Rows {
		if got[i] != row[0].Str {
			t.Errorf("stmt %d = %q, want %q", i, got[i], row[0].Str)
		}
	}
	// The client stays usable for plain queries afterwards.
	if _, err := c.Exec("SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
}

// TestExecStreamServerError: a server-reported error mid-protocol is a
// *ServerError and does NOT poison the connection.
func TestExecStreamServerError(t *testing.T) {
	_, srv := newServer(t)
	c, err := Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.ExecStream("DUMP STREAM -5", func(uint32, []string) error { return nil })
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("got %T %v, want *ServerError", err, err)
	}
	if c.broken {
		t.Fatal("server error poisoned the stream connection")
	}
	// The conn still answers plain queries.
	if _, err := c.Exec("CREATE TABLE alive (id INT PRIMARY KEY)"); err != nil {
		t.Fatalf("conn unusable after server error: %v", err)
	}
}

// TestExecStreamSinkErrorPoisons: a sink failure mid-stream leaves frames
// in flight, so the client must poison the conn (the cause stays
// inspectable through Unwrap).
func TestExecStreamSinkErrorPoisons(t *testing.T) {
	_, srv := newServer(t)
	c, err := Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := c.Exec(fmt.Sprintf("INSERT INTO t (id) VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("applier refused chunk")
	_, err = c.ExecStream("DUMP STREAM 1", func(uint32, []string) error { return boom })
	if !errors.Is(err, ErrConnLost) {
		t.Fatalf("got %v, want ErrConnLost", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("cause not preserved: %v", err)
	}
	if _, err := c.Exec("SELECT id FROM t"); !errors.Is(err, ErrConnLost) {
		t.Fatalf("poisoned conn accepted a query: %v", err)
	}
}

// TestExecStreamSeqGapPoisons: a scripted server that skips a sequence
// number desyncs the stream; the client must treat it as conn loss.
func TestExecStreamSeqGapPoisons(t *testing.T) {
	addr := scriptedAddr(t, func(sess int, conn net.Conn, br *bufio.Reader) {
		if !startupOK(conn, br) {
			return
		}
		if _, _, err := recvFrame(br); err != nil {
			return
		}
		sendFrame(conn, MsgStreamChunk, EncodeStreamChunk(0, []string{"a"}))
		sendFrame(conn, MsgStreamChunk, EncodeStreamChunk(2, []string{"b"})) // gap!
		sendFrame(conn, MsgStreamEnd, EncodeStreamEnd(3, &engine.Result{}))
	})
	c, err := Dial(addr, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.ExecStream("DUMP STREAM 4", func(uint32, []string) error { return nil })
	if !errors.Is(err, ErrConnLost) {
		t.Fatalf("got %v, want ErrConnLost on sequence gap", err)
	}
}

// TestExecStreamDropMidStreamIsConnLoss: the server dies between chunks;
// the client reports a typed transport loss (the trigger for the
// migration rollback protocol upstream).
func TestExecStreamDropMidStreamIsConnLoss(t *testing.T) {
	addr := scriptedAddr(t, func(sess int, conn net.Conn, br *bufio.Reader) {
		if !startupOK(conn, br) {
			return
		}
		if _, _, err := recvFrame(br); err != nil {
			return
		}
		sendFrame(conn, MsgStreamChunk, EncodeStreamChunk(0, []string{"CREATE TABLE t (id INT PRIMARY KEY)"}))
		// return → conn closes mid-stream
	})
	c, err := Dial(addr, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seen := 0
	_, err = c.ExecStream("DUMP STREAM 4", func(uint32, []string) error { seen++; return nil })
	if !errors.Is(err, ErrConnLost) {
		t.Fatalf("got %v, want ErrConnLost", err)
	}
	if seen != 1 {
		t.Fatalf("sink saw %d chunks, want 1", seen)
	}
}

// TestExecStreamChunkTotalMismatchPoisons: a trailer claiming the wrong
// chunk count is a protocol violation.
func TestExecStreamChunkTotalMismatchPoisons(t *testing.T) {
	addr := scriptedAddr(t, func(sess int, conn net.Conn, br *bufio.Reader) {
		if !startupOK(conn, br) {
			return
		}
		if _, _, err := recvFrame(br); err != nil {
			return
		}
		sendFrame(conn, MsgStreamChunk, EncodeStreamChunk(0, []string{"a"}))
		sendFrame(conn, MsgStreamEnd, EncodeStreamEnd(5, &engine.Result{})) // only 1 sent
	})
	c, err := Dial(addr, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.ExecStream("DUMP STREAM 4", func(uint32, []string) error { return nil })
	if !errors.Is(err, ErrConnLost) {
		t.Fatalf("got %v, want ErrConnLost on chunk-count mismatch", err)
	}
}

// TestQueryStreamAgainstNonStreamingStatement: MsgQueryStream with a plain
// statement gets a chunkless trailer — streaming is opt-in per statement
// but safe for any SQL.
func TestQueryStreamAgainstNonStreamingStatement(t *testing.T) {
	_, srv := newServer(t)
	c, err := Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	res, err := c.ExecStream("SELECT id FROM t", func(uint32, []string) error {
		t.Error("plain statement produced a chunk")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tag != "SELECT 0" {
		t.Errorf("tag = %q", res.Tag)
	}
}
