package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"madeus/internal/engine"
	"madeus/internal/sqlmini"
	"madeus/internal/testutil"
)

// rawConn opens a TCP connection to the server without the client wrapper.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// sendFrame writes one frame straight to a raw connection.
func sendFrame(conn net.Conn, typ byte, payload []byte) error {
	bw := bufio.NewWriter(conn)
	if err := writeMsg(bw, typ, payload); err != nil {
		return err
	}
	return bw.Flush()
}

// recvFrame reads one frame into a buffer of its own.
func recvFrame(br *bufio.Reader) (byte, []byte, error) {
	var buf []byte
	return readMsg(br, &buf)
}

func TestServerRejectsOversizedFrame(t *testing.T) {
	_, srv := newServer(t)
	conn := rawConn(t, srv.Addr())
	var hdr [5]byte
	hdr[0] = MsgStartup
	binary.BigEndian.PutUint32(hdr[1:], 1<<31) // absurd length
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	// The server must drop the connection rather than allocate.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err == nil {
		t.Error("expected connection close or error")
	}
}

func TestServerHandlesAbruptDisconnectMidFrame(t *testing.T) {
	_, srv := newServer(t)
	conn := rawConn(t, srv.Addr())
	var hdr [5]byte
	hdr[0] = MsgStartup
	binary.BigEndian.PutUint32(hdr[1:], 100) // promise 100 bytes
	conn.Write(hdr[:])
	conn.Write([]byte("db")) // send only 2
	conn.Close()
	// Server must not hang or crash; a fresh client still works.
	c, err := Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
}

func TestServerRejectsUnexpectedMessageType(t *testing.T) {
	_, srv := newServer(t)
	conn := rawConn(t, srv.Addr())
	// Valid startup first.
	if err := sendFrame(conn, MsgStartup, []byte("db")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	typ, _, err := recvFrame(br)
	if err != nil || typ != MsgReady {
		t.Fatalf("startup: %c %v", typ, err)
	}
	// Then garbage type.
	if err := sendFrame(conn, 'Z', nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := recvFrame(br)
	if err != nil {
		t.Fatalf("read error response: %v", err)
	}
	if typ != MsgError {
		t.Errorf("got %c %q, want error", typ, payload)
	}
}

func TestQueryBeforeStartupDropsConnection(t *testing.T) {
	_, srv := newServer(t)
	conn := rawConn(t, srv.Addr())
	if err := sendFrame(conn, MsgQuery, []byte("SELECT 1 FROM t")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err == nil {
		t.Error("expected close for query before startup")
	}
}

func TestDecodeResultBadValueKind(t *testing.T) {
	full := AppendResult(nil, &engine.Result{
		Tag: "SELECT 1", Columns: []string{"a"},
		Rows: [][]sqlmini.Value{{sqlmini.NewInt(1)}},
	})
	full[len(full)-9] = 0xFF // the kind byte of the single INT value
	if _, err := DecodeResult(full); err == nil {
		t.Error("corrupt kind not detected")
	}
}

// TestDecodeResultRejectsImpossibleCounts feeds column, row and value
// counts that the rest of the frame cannot hold: each must be an error, not
// an allocation sized from the count.
func TestDecodeResultRejectsImpossibleCounts(t *testing.T) {
	// An empty tag, Affected 0, then the given u32s and 64 bytes of padding.
	frameOf := func(counts ...uint32) []byte {
		b := binary.BigEndian.AppendUint32(nil, 0)
		b = binary.BigEndian.AppendUint32(b, 0)
		for _, c := range counts {
			b = binary.BigEndian.AppendUint32(b, c)
		}
		return append(b, make([]byte, 64)...)
	}
	for name, frame := range map[string][]byte{
		"columns": frameOf(math.MaxUint32),
		"rows":    frameOf(0, math.MaxUint32),
		"values":  frameOf(0, 1, math.MaxUint32),
	} {
		if _, err := DecodeResult(frame); err == nil {
			t.Errorf("%s: impossible count accepted", name)
		}
	}
}

// scriptedAddr starts a raw protocol server whose per-session behavior is
// given by script (invoked with a 0-based session index per accepted
// connection). It lets the client tests stage byzantine peers: servers that
// never reply, drop mid-frame, or heal on a later session.
func scriptedAddr(t *testing.T, script func(sess int, conn net.Conn, br *bufio.Reader)) string {
	t.Helper()
	testutil.CheckGoroutines(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for sess := 0; ; sess++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(sess int, conn net.Conn) {
				defer wg.Done()
				defer conn.Close()
				script(sess, conn, bufio.NewReader(conn))
			}(sess, conn)
		}
	}()
	return ln.Addr().String()
}

// startupOK plays the server side of the session handshake.
func startupOK(conn net.Conn, br *bufio.Reader) bool {
	if _, _, err := recvFrame(br); err != nil {
		return false
	}
	return sendFrame(conn, MsgReady, nil) == nil
}

func TestOpTimeoutExpiryIsTypedConnLoss(t *testing.T) {
	// A server that accepts the query and then goes silent: the op
	// timeout must convert the stall into a typed connection loss and
	// poison the client (the stale response could arrive later).
	addr := scriptedAddr(t, func(sess int, conn net.Conn, br *bufio.Reader) {
		if !startupOK(conn, br) {
			return
		}
		for {
			if _, _, err := recvFrame(br); err != nil {
				return // client hung up
			}
			// swallow the query, never answer
		}
	})
	c, err := Dial(addr, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetOpTimeout(50 * time.Millisecond)

	start := time.Now()
	_, err = c.Exec("SELECT 1 FROM t")
	if !errors.Is(err, ErrConnLost) {
		t.Fatalf("got %v, want ErrConnLost", err)
	}
	var cl *ConnLostError
	if !errors.As(err, &cl) || cl.Op != "read" {
		t.Errorf("got %#v, want *ConnLostError with Op=read", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v, bound was 50ms", elapsed)
	}
	if !c.Broken() {
		t.Error("client not poisoned after op timeout")
	}
	// Poisoned clients fail fast, they do not touch the dead socket.
	if _, err := c.Exec("SELECT 1 FROM t"); !errors.Is(err, ErrConnLost) {
		t.Errorf("exec on poisoned client: %v, want ErrConnLost", err)
	}
}

func TestMidMessageConnDropIsTypedConnLoss(t *testing.T) {
	addr := scriptedAddr(t, func(sess int, conn net.Conn, br *bufio.Reader) {
		if !startupOK(conn, br) {
			return
		}
		if _, _, err := recvFrame(br); err != nil {
			return
		}
		// Half a result frame, then hang up mid-message.
		conn.Write([]byte{MsgResult, 0x00, 0x00})
	})
	c, err := Dial(addr, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec("SELECT 1 FROM t")
	if !errors.Is(err, ErrConnLost) {
		t.Fatalf("got %v, want ErrConnLost", err)
	}
	if !IsTransportError(err) {
		t.Error("conn loss not classified as a transport error")
	}
	if !c.Broken() {
		t.Error("client not poisoned after mid-message drop")
	}
}
