package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"madeus/internal/engine"
	"madeus/internal/fault"
	"madeus/internal/obs"
)

// Process-wide wire observability, aggregated over every server in the
// process (middleware listener and in-process nodes alike).
var (
	obsActiveConns = obs.NewGauge("wire.conns.active", "sessions currently open")
	obsConnsTotal  = obs.NewCounter("wire.conns.total", "sessions accepted")
	obsOps         = obs.NewCounter("wire.ops", "query messages served")
	obsBytesIn     = obs.NewCounter("wire.bytes.in", "request payload bytes received")
	obsBytesOut    = obs.NewCounter("wire.bytes.out", "response payload bytes sent")
	obsOpLatency   = obs.NewHistogram("wire.op.latency", "server-side per-operation latency", obs.DurationBuckets())
	obsStreamOps   = obs.NewCounter("wire.stream.ops", "streaming queries served")
	obsStreamChunk = obs.NewCounter("wire.stream.chunks", "stream chunk frames sent")
	obsScrapes     = obs.NewCounter("wire.scrapes", "remote observability snapshots served")
)

// Trace event names for served traced operations.
const (
	obsEvWireExec   = "wire.exec"
	obsEvWireStream = "wire.stream"
)

// faultServeOp is the server-side per-op failpoint: a drop policy hangs
// up mid-conversation (the client sees the peer vanish); an error policy
// answers the query with a server error.
const faultServeOp = "wire.serve.op"

// Conn is one server-side session: what a connected client can do. Exec
// runs sql and appends the answer's encoded MsgResult payload to dst — the
// server's pooled frame buffer — returning the extended buffer; on error the
// buffer it returns is discarded. A session that holds its answer already
// encoded (the middleware's worker relays its master's reply) appends the
// bytes as they are, and one that holds an engine.Result encodes it with
// AppendResult.
//
// sql is lent: it aliases the frame the query arrived in, and the server
// reads the session's next frame into the same buffer once Exec (or
// ExecStream) returns. A session that keeps any of the text past the call
// — a parse-cache key, a catalog name, a captured statement — copies what
// it keeps.
type Conn interface {
	Exec(sql string, dst []byte) ([]byte, error)
	Close()
}

// StreamConn is the optional streaming capability of a Conn: ExecStream
// runs sql, handing bulk payload to emit in bounded chunks before it
// appends the final result to dst as Exec does. emit borrows each chunk,
// its slice and its strings, only until it returns. handled=false means sql
// has no streaming form and the server answers through plain Exec instead.
// Sessions without this capability (e.g. middleware worker sessions) still
// accept MsgQueryStream — they just answer with a chunkless trailer.
type StreamConn interface {
	ExecStream(sql string, emit func(stmts []string) error, dst []byte) (out []byte, handled bool, err error)
}

// Handler opens a session when a client's startup message arrives.
type Handler interface {
	Connect(database string) (Conn, error)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(database string) (Conn, error)

// Connect calls f.
func (f HandlerFunc) Connect(database string) (Conn, error) { return f(database) }

// Server accepts protocol connections and drives sessions.
type Server struct {
	ln      net.Listener
	handler Handler

	// scope is the observability identity this server emits traced-query
	// events into and answers MsgObsScrape from. Defaults to the process
	// scope; cluster tests running several "nodes" in one process install
	// private scopes so each node's timeline stays distinct. An atomic
	// pointer because SetScope races with the accept loop already serving.
	scope atomic.Pointer[obs.Scope]

	mu     sync.Mutex //madeusvet:lockrank wire-server 8
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Listen starts a server on addr ("127.0.0.1:0" picks a free port).
func Listen(addr string, handler Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return listenOn(ln, handler), nil
}

// listenOn starts a server on an open listener.
func listenOn(ln net.Listener, handler Handler) *Server {
	s := &Server{ln: ln, handler: handler, conns: make(map[net.Conn]struct{})}
	s.scope.Store(obs.Process())
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// SetScope replaces the server's observability scope (nil restores the
// process scope). Safe while serving.
func (s *Server) SetScope(sc *obs.Scope) {
	if sc == nil {
		sc = obs.Process()
	}
	s.scope.Store(sc)
}

// Scope returns the server's current observability scope.
func (s *Server) Scope() *obs.Scope { return s.scope.Load() }

// traceOp stamps one served traced operation into the scope's event ring.
// tc == nil (a plain frame) is a no-op.
func (s *Server) traceOp(tc *TraceContext, name string, dur time.Duration, err error) {
	if tc == nil {
		return
	}
	fields := []obs.Field{obs.F("mts", tc.MTS), obs.F("span", tc.Span)}
	if err != nil {
		fields = append(fields, obs.F("err", err))
	}
	// name is forwarded verbatim; both call sites pass the obsEvWire*
	// package consts.
	s.scope.Load().Tracer.EmitDur(tc.Tenant, name, dur, fields...)
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and closes all connections.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serve(conn)
	}
}

func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var rbuf []byte // readMsg's buffer: every payload below is valid until the next read

	// Startup.
	typ, payload, err := readMsg(br, &rbuf)
	if err != nil || typ != MsgStartup {
		return
	}
	sess, err := s.handler.Connect(string(payload))
	if err != nil {
		// Best-effort rejection notice; the connection closes either way.
		_ = writeMsg(bw, MsgError, []byte(err.Error()))
		_ = bw.Flush()
		return
	}
	defer sess.Close()
	if err := writeMsg(bw, MsgReady, nil); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	obsConnsTotal.Inc()
	obsActiveConns.Inc()
	defer obsActiveConns.Dec()

	for {
		typ, payload, err := readMsg(br, &rbuf)
		if err != nil {
			return // client went away
		}
		switch typ {
		case MsgQuery, MsgQueryTraced, MsgQueryStream, MsgQueryStreamTraced:
			stream := typ == MsgQueryStream || typ == MsgQueryStreamTraced
			if ferr := fault.Inject(faultServeOp); ferr != nil {
				if fault.IsConnDrop(ferr) {
					return // vanish mid-conversation
				}
				_ = writeMsg(bw, MsgError, []byte(ferr.Error()))
				if bw.Flush() != nil {
					return
				}
				continue
			}
			obsOps.Inc()
			if stream {
				obsStreamOps.Inc()
			}
			obsBytesIn.Add(uint64(len(payload) + msgHeaderLen))
			var tc *TraceContext
			if typ == MsgQueryTraced || typ == MsgQueryStreamTraced {
				ctx, q, derr := decodeTraced(payload)
				if derr != nil {
					// A malformed trace prefix desynchronizes the frame's
					// meaning; hang up like any protocol violation.
					_ = writeMsg(bw, MsgError, []byte(derr.Error()))
					_ = bw.Flush()
					return
				}
				tc, payload = &ctx, q
			}
			// Every session runs a query from the frame it arrived in,
			// lent for the call (see Conn).
			sql := unsafe.String(unsafe.SliceData(payload), len(payload))
			start := time.Now()
			f := getFrameBuf()
			var err error
			event, reply := obsEvWireExec, byte(MsgResult)
			if stream {
				event, reply = obsEvWireStream, MsgStreamEnd
				f.buf, err = execStream(sess, bw, sql, f.buf)
			} else {
				f.buf, err = sess.Exec(sql, f.buf)
			}
			dur := time.Since(start)
			obsOpLatency.ObserveDuration(dur)
			s.traceOp(tc, event, dur, err)
			// MsgError answers either shape, and is a valid stream
			// terminator at any point; if the failure was the transport
			// itself this write fails too and the session ends.
			if err != nil {
				reply = MsgError
				f.buf = append(f.buf[:0], err.Error()...)
			}
			obsBytesOut.Add(uint64(len(f.buf) + msgHeaderLen))
			werr := writeMsg(bw, reply, f.buf)
			putFrameBuf(f)
			if werr != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
		case MsgObsScrape:
			since, maxEvents, tenant, derr := decodeScrapeReq(payload)
			if derr != nil {
				_ = writeMsg(bw, MsgError, []byte(derr.Error()))
				_ = bw.Flush()
				return
			}
			obsScrapes.Inc()
			snap := s.scope.Load().Snapshot(since, tenant, maxEvents)
			body, merr := encodeSnapshot(snap)
			var err error
			if merr != nil {
				body = []byte(merr.Error())
				err = writeMsg(bw, MsgError, body)
			} else {
				err = writeMsg(bw, MsgObsSnapshot, body)
			}
			obsBytesOut.Add(uint64(len(body) + msgHeaderLen))
			if err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
		case MsgTerminate:
			return
		default:
			// Best-effort protocol error before hanging up.
			_ = writeMsg(bw, MsgError, []byte("wire: unexpected message type"))
			_ = bw.Flush()
			return
		}
	}
}

// execStream answers one streaming query, appending the MsgStreamEnd
// payload to dst: sessions with the StreamConn capability send their bulk
// payload as chunk frames first; everything else (and any sql without a
// streaming form) runs through plain Exec and yields a chunkless trailer.
// Kept out of serve so what the emit closure captures, the chunk counter,
// is allocated per streaming query, not per query. A chunk is written from
// the statements the session lends (writeStreamChunk): a DUMP STREAM row
// chunk, one row statement of 64 sections of 50 rows, goes from the
// buffer the dump built it in to the socket.
func execStream(sess Conn, bw *bufio.Writer, sql string, dst []byte) ([]byte, error) {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0) // the chunk total, patched in once known
	var chunks uint32
	handled := false
	var err error
	if sc, ok := sess.(StreamConn); ok {
		// Each chunk frame is flushed immediately so the client's restore
		// pipeline overlaps the ongoing scan; a write failure surfaces
		// through ExecStream's emit error and ends the session in serve.
		dst, handled, err = sc.ExecStream(sql, func(stmts []string) error {
			n, err := writeStreamChunk(bw, chunks, stmts)
			chunks++
			obsStreamChunk.Inc()
			obsBytesOut.Add(uint64(n + msgHeaderLen))
			if err != nil {
				return err
			}
			return bw.Flush()
		}, dst)
	}
	if !handled && err == nil {
		dst, err = sess.Exec(sql, dst)
	}
	if err != nil {
		return dst, err
	}
	binary.BigEndian.PutUint32(dst[at:], chunks)
	return dst, nil
}

// engineConn serves a Conn from an engine session, the streaming-capable
// backend (DUMP STREAM): it is where a node encodes its results. Exec
// encodes the result its session lends (Session.ExecLent) before it
// returns, so a statement's answer costs the node no result of its own.
type engineConn struct{ s *engine.Session }

var _ StreamConn = engineConn{}

func (c engineConn) Exec(sql string, dst []byte) ([]byte, error) {
	res, err := c.s.ExecLent(sql)
	if err != nil {
		return dst, err
	}
	return AppendResult(dst, res), nil
}

func (c engineConn) ExecStream(sql string, emit func(stmts []string) error, dst []byte) ([]byte, bool, error) {
	res, handled, err := c.s.ExecStream(sql, emit)
	if !handled || err != nil {
		return dst, handled, err
	}
	return AppendResult(dst, res), true, nil
}

func (c engineConn) Close() { c.s.Close() }

// EngineHandler serves sessions straight from an engine (the normal DBMS
// node configuration).
func EngineHandler(e *engine.Engine) Handler {
	return HandlerFunc(func(db string) (Conn, error) {
		s, err := e.NewSession(db)
		if err != nil {
			return nil, err
		}
		return engineConn{s}, nil
	})
}

// IsTransportError distinguishes connection failures from server-reported
// errors.
func IsTransportError(err error) bool {
	if err == nil {
		return false
	}
	var se *ServerError
	if errors.As(err, &se) {
		return false
	}
	return errors.Is(err, ErrConnLost) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) || isNetError(err)
}

func isNetError(err error) bool {
	var ne net.Error
	return errors.As(err, &ne)
}
