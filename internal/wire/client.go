package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"madeus/internal/engine"
	"madeus/internal/fault"
	"madeus/internal/obs"
)

// Client-side failpoint sites (armed only under -tags faultinject).
const (
	faultDial  = "wire.dial"
	faultExec  = "wire.exec"
	faultWrite = "wire.write"
	faultRead  = "wire.read"
)

// ErrConnLost is the sentinel matched by errors.Is when a client
// connection died mid-operation: the peer vanished, an op timeout
// expired, or the protocol stream desynchronized. The concrete error is
// always a *ConnLostError carrying the failing op and cause.
var ErrConnLost = errors.New("wire: connection lost")

// ConnLostError reports that the client's connection is unusable. Once
// returned, the Client is poisoned: a response to the in-flight request
// may still arrive and would be misattributed to the next one, so the
// socket is closed and the session is gone; the caller dials a new one.
type ConnLostError struct {
	Op    string // "dial", "write", "read", "exec"
	Cause error
}

func (e *ConnLostError) Error() string {
	return fmt.Sprintf("wire: connection lost during %s: %v", e.Op, e.Cause)
}

func (e *ConnLostError) Unwrap() error { return e.Cause }

// Is matches the ErrConnLost sentinel.
func (e *ConnLostError) Is(target error) bool { return target == ErrConnLost }

// Client is a protocol client bound to one database session. A Client is
// used by one goroutine at a time (matching the request/response discipline:
// "After receiving the response of the operation, the customer sends a new
// operation", Sec 4.2).
type Client struct {
	rtt time.Duration

	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	rbuf   []byte // readMsg's buffer: holds the reply ExecReply lends out
	broken bool   // connection poisoned; the session is gone

	opTimeout time.Duration

	trace *TraceContext // when set and obs is on, ops go out as traced frames
}

// Dial connects to addr and starts a session on database.
func Dial(addr, database string) (*Client, error) {
	return DialRTT(addr, database, 0)
}

// DialRTT is Dial with a simulated network round-trip time added to every
// Exec (the latency-injection knob standing in for the paper's 1 GbE LAN).
func DialRTT(addr, database string, rtt time.Duration) (*Client, error) {
	if err := fault.Inject(faultDial); err != nil {
		if fault.IsConnDrop(err) {
			return nil, &ConnLostError{Op: "dial", Cause: err}
		}
		return nil, err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{rtt: rtt, conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	if err := c.startup(database); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// SetOpTimeout bounds every subsequent Exec: the whole request/response
// exchange must finish within d or the connection is declared lost
// (deadline-based; an expired op poisons the conn because its response
// may still arrive later). 0 disables the bound.
func (c *Client) SetOpTimeout(d time.Duration) { c.opTimeout = d }

// SetTraceContext attaches (or, with nil, detaches) a migration trace
// context. While attached, every Exec and ExecStream goes out as a traced frame so the server-side events carry
// the migration's MTS and span id.
func (c *Client) SetTraceContext(tc *TraceContext) { c.trace = tc }

// sendQuery is the request half shared by Exec and ExecStream: simulated
// RTT, the poisoned-connection check, the client fault sites, the op
// deadline, and one query frame written and flushed. plain and traced are
// the frame types of the statement's shape; the traced one (trace context
// prefixed to the SQL) goes out only while a context is attached. The frame is written straight from sql (see
// writeQuery), so relaying a restore chunk costs no copy of it.
func (c *Client) sendQuery(plain, traced byte, sql string) error {
	if c.rtt > 0 {
		time.Sleep(c.rtt)
	}
	if c.broken {
		return &ConnLostError{Op: "exec", Cause: errors.New("client not connected")}
	}
	if err := fault.Inject(faultExec); err != nil {
		return c.faulted("exec", err)
	}
	c.armDeadline()
	if err := fault.Inject(faultWrite); err != nil {
		return c.faulted("write", err)
	}
	typ, tc := plain, (*TraceContext)(nil)
	if c.trace != nil {
		typ, tc = traced, c.trace
	}
	if err := writeQuery(c.bw, typ, tc, sql); err != nil {
		return c.lost("write", err)
	}
	if err := c.bw.Flush(); err != nil {
		return c.lost("write", err)
	}
	return nil
}

// armDeadline (re)starts the op timeout, when one is set.
func (c *Client) armDeadline() {
	if c.opTimeout > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(c.opTimeout))
	}
}

// clearDeadline lifts the op timeout from a connection that survived the
// exchange; a poisoned one is already closed.
func (c *Client) clearDeadline() {
	if c.opTimeout > 0 && !c.broken {
		_ = c.conn.SetDeadline(time.Time{})
	}
}

// Broken reports whether the connection has been poisoned by a transport
// failure.
func (c *Client) Broken() bool { return c.broken }

func (c *Client) startup(database string) error {
	if c.opTimeout > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(c.opTimeout))
		defer func() { _ = c.conn.SetDeadline(time.Time{}) }()
	}
	if err := writeMsg(c.bw, MsgStartup, []byte(database)); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	typ, payload, err := readMsg(c.br, &c.rbuf)
	if err != nil {
		return err
	}
	switch typ {
	case MsgReady:
		return nil
	case MsgError:
		return &ServerError{Msg: string(payload)}
	}
	return fmt.Errorf("wire: unexpected startup response %q", typ)
}

// Exec sends one statement and waits for its result. A *ServerError return
// means the server processed the request and reported a failure (e.g. a
// serialization abort); a *ConnLostError (errors.Is ErrConnLost) means the
// transport died and the statement's fate is unknown.
func (c *Client) Exec(sql string) (*engine.Result, error) {
	reply, err := c.ExecReply(sql)
	if err != nil {
		return nil, err
	}
	return DecodeResult(reply)
}

// ExecReply is Exec without the decode: it returns the encoded MsgResult
// payload (DecodeResult's input, ResultTagIs's too) as the server sent it.
// The payload is lent from the client's read buffer and is valid only until
// the next call on c; a caller that keeps it copies it. Errors are Exec's.
func (c *Client) ExecReply(sql string) ([]byte, error) {
	defer c.clearDeadline()
	if err := c.sendQuery(MsgQuery, MsgQueryTraced, sql); err != nil {
		return nil, err
	}
	if err := fault.Inject(faultRead); err != nil {
		return nil, c.faulted("read", err)
	}
	typ, payload, err := readMsg(c.br, &c.rbuf)
	if err != nil {
		return nil, c.lost("read", err)
	}
	switch typ {
	case MsgResult:
		return payload, nil
	case MsgError:
		return nil, &ServerError{Msg: string(payload)}
	}
	// Unknown frame type: the stream is desynchronized, same poisoning
	// rules as a dead peer.
	return nil, c.lost("read", fmt.Errorf("wire: unexpected response type %q", typ))
}

// ExecStream sends one statement as a streaming query and hands each
// response chunk to sink as it arrives, returning the trailer's final
// result. A chunk's statements are the sink's to keep: they alias the
// chunk's frame, which is the sink's own and never read into again. It is
// ExecStreamFrames for a sink that never gives a frame back.
func (c *Client) ExecStream(sql string, sink func(seq uint32, stmts []string) error) (*engine.Result, error) {
	return c.ExecStreamFrames(sql, func(seq uint32, stmts []string, _ []byte) error { return sink(seq, stmts) })
}

// ExecStreamFrames is ExecStream handing the sink, beside each chunk's
// statements, the frame they alias. A sink that has done with a chunk may
// give its frame back to the process's pool of large frames with
// ReleaseFrame, so the next chunk read anywhere in the process reuses it;
// one that does not leaves it to the collector. The server assigns
// contiguous sequence numbers from 0; a gap,
// reorder, or count mismatch poisons the connection like any other
// protocol desynchronization. A sink error also poisons the connection —
// the stream is abandoned with frames still in flight, so the session
// cannot be reused — and is returned (wrapped in the typed loss, so the
// cause stays inspectable via errors.Is/As).
//
// The op timeout, when set, bounds each frame rather than the whole
// stream: a transfer makes progress or dies, however large the dump.
func (c *Client) ExecStreamFrames(sql string, sink func(seq uint32, stmts []string, frame []byte) error) (*engine.Result, error) {
	defer c.clearDeadline()
	if err := c.sendQuery(MsgQueryStream, MsgQueryStreamTraced, sql); err != nil {
		return nil, err
	}
	var next uint32
	for {
		if err := fault.Inject(faultRead); err != nil {
			return nil, c.faulted("read", err)
		}
		c.armDeadline()
		typ, payload, err := readMsg(c.br, &c.rbuf)
		if err != nil {
			return nil, c.lost("read", err)
		}
		switch typ {
		case MsgStreamChunk:
			frame := ownedPayload(payload)
			seq, stmts, err := DecodeStreamChunk(frame)
			if err != nil {
				return nil, c.lost("read", err)
			}
			if seq != next {
				return nil, c.lost("read", fmt.Errorf("wire: stream chunk %d arrived, want %d", seq, next))
			}
			next++
			if err := sink(seq, stmts, frame); err != nil {
				return nil, c.lost("read", err)
			}
		case MsgStreamEnd:
			chunks, res, err := DecodeStreamEnd(payload)
			if err != nil {
				return nil, c.lost("read", err)
			}
			if chunks != next {
				return nil, c.lost("read", fmt.Errorf("wire: stream ended after %d chunks, server sent %d", next, chunks))
			}
			return res, nil
		case MsgError:
			// A server error is a clean stream terminator: the protocol
			// is back in sync, no poisoning.
			return nil, &ServerError{Msg: string(payload)}
		default:
			return nil, c.lost("read", fmt.Errorf("wire: unexpected response type %q", typ))
		}
	}
}

// Scrape pulls the server process's observability snapshot: its registry
// metrics plus the event-ring tail from since (a Seq bookmark; 0 means
// everything still in the ring), optionally filtered by tenant, capped at
// maxEvents. Follows Exec's transport discipline — op timeout, poisoning
// on desync — because it shares the session's request/response stream.
func (c *Client) Scrape(since uint64, tenant string, maxEvents int) (*obs.RemoteSnapshot, error) {
	if c.rtt > 0 {
		time.Sleep(c.rtt)
	}
	if c.broken {
		return nil, &ConnLostError{Op: "exec", Cause: errors.New("client not connected")}
	}
	c.armDeadline()
	defer c.clearDeadline()
	if err := writeMsg(c.bw, MsgObsScrape, encodeScrapeReq(since, maxEvents, tenant)); err != nil {
		return nil, c.lost("write", err)
	}
	if err := c.bw.Flush(); err != nil {
		return nil, c.lost("write", err)
	}
	typ, payload, err := readMsg(c.br, &c.rbuf)
	if err != nil {
		return nil, c.lost("read", err)
	}
	switch typ {
	case MsgObsSnapshot:
		return decodeSnapshot(payload)
	case MsgError:
		return nil, &ServerError{Msg: string(payload)}
	}
	return nil, c.lost("read", fmt.Errorf("wire: unexpected response type %q", typ))
}

// faulted translates an injected error: a conn-drop closes the socket
// and surfaces as the same typed loss a real dead peer would produce;
// other injected errors pass through unchanged.
func (c *Client) faulted(op string, err error) error {
	if fault.IsConnDrop(err) {
		return c.lost(op, err)
	}
	return err
}

// lost poisons the client and returns the typed loss.
func (c *Client) lost(op string, cause error) error {
	c.broken = true
	if c.conn != nil {
		_ = c.conn.Close()
	}
	return &ConnLostError{Op: op, Cause: cause}
}

// Close terminates the session and the connection. The terminate message is
// best-effort: the connection is closed regardless.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	if !c.broken {
		_ = writeMsg(c.bw, MsgTerminate, nil)
		_ = c.bw.Flush()
	}
	return c.conn.Close()
}
