// Package wire implements the query protocol between customers, the Madeus
// middleware, and DBMS nodes.
//
// The paper's implementation speaks libpq and the type-4 JDBC protocol so
// the middleware can interpose on unmodified PostgreSQL ("To interpret the
// operation directly, we implement the libpq and type 4 JDBC protocol",
// Sec 5.2). Our substitute is a minimal session-oriented protocol with the
// same structure: a startup message selecting a database, then a stream of
// query/response pairs. Madeus only needs to relay and classify operations,
// so any such protocol exercises the identical middleware code path.
//
// Framing: 1 type byte + 4-byte big-endian payload length + payload. Each
// connection reads every frame into one buffer it owns (readMsg) and
// buffers every frame it writes until one Flush (writeMsg), so a frame
// costs no allocation and, below the bufio buffer size, one write.
//
// There is one query relay. A query's type byte encodes two independent
// bits — does the payload carry a trace-context prefix, may the response
// stream — and both ends handle every combination on one path: the client
// through one send helper (Client.ExecReply and Client.ExecStream differ
// only in how they read the answer), the server through one case in
// Server.serve that branches on "stream?" for the response frames alone.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"madeus/internal/engine"
	"madeus/internal/sqlmini"
)

// Message type bytes.
const (
	MsgStartup   = 'S' // client → server: payload = database name
	MsgQuery     = 'Q' // client → server: payload = SQL text
	MsgTerminate = 'X' // client → server: close the session
	MsgReady     = 'O' // server → client: startup accepted
	MsgResult    = 'R' // server → client: encoded engine.Result
	MsgError     = 'E' // server → client: error text

	// The two query variations. The server executes all four query shapes
	// (plain/stream × untraced/traced) through one arm: the type byte only
	// says whether the payload starts with a trace context and whether the
	// answer is a single MsgResult or a stream.
	//
	// Stream: answered by zero or more MsgStreamChunk frames followed by
	// exactly one MsgStreamEnd (or a MsgError, which terminates the stream
	// at any point and leaves the protocol in sync). This is the pipelined
	// Step-1 dump path; a statement with no streaming form gets a chunkless
	// trailer.
	MsgQueryStream = 'q' // client → server: payload = SQL text, response may stream
	MsgStreamChunk = 'C' // server → client: u32 seq + u32 count + count statements
	MsgStreamEnd   = 'Z' // server → client: u32 chunk total + encoded engine.Result

	// Traced: the payload is prefixed with a trace context (migration MTS +
	// span id + tenant) so a dbnode can attribute its server-side work to
	// the middleware migration that caused it. An untraced query carries no
	// extra payload byte. Servers that predate these types answer with
	// MsgError, which the client surfaces normally — the trace prefix is an
	// upgrade, not a handshake.
	MsgQueryTraced       = 'T' // client → server: trace context + SQL text
	MsgQueryStreamTraced = 't' // client → server: trace context + SQL text, response may stream

	// Remote observability scrape: madeusd pulls a dbnode's registry
	// snapshot and event-ring tail over the same session protocol the
	// queries use (no second port, no second auth path).
	MsgObsScrape   = 'M' // client → server: u64 since-seq + u32 max events + str tenant filter
	MsgObsSnapshot = 'D' // server → client: JSON-encoded obs.RemoteSnapshot
)

// maxPayload guards against corrupt frames: 64 MiB, size class
// maxPayloadClass (see largeFrames).
const (
	maxPayloadClass = 26
	maxPayload      = 1 << maxPayloadClass
)

// msgHeaderLen is the frame header size (type byte + length), counted into
// the wire.bytes.* observability counters.
const msgHeaderLen = 5

// maxKeptFrame bounds the read buffer a connection keeps between frames. A
// larger payload (a multi-MB dump chunk) is read into a buffer of its own,
// taken from largeFrames, so an idle session pins at most this much.
const maxKeptFrame = 64 << 10

// largeFrames recycles, process wide, the buffers readMsg reads payloads
// above maxKeptFrame into: on a migration, every DUMP STREAM chunk the
// middleware reads from the source and every restore statement a slave
// reads it back as. A frame goes back only from the one place that knows
// nobody reads it any more (ReleaseFrame): the server, once the reply to
// the query it held is flushed, and the middleware's Step 1, once the last
// slave has applied the chunk. A frame nobody returns, such
// as a large reply ExecReply lends out, is left to the collector, and a
// pool empties across collections, so pooling pins nothing on an idle
// process.
//
// There is one pool per size class, the power of two a payload's buffer
// is rounded up to (frameClass: 17, just above maxKeptFrame, to
// maxPayloadClass), so frames of one class make do with one another's
// buffers — the DUMP STREAM chunks of TPC-W's tables, 130 to 250 KB, all
// take 256 KB ones — and a pool holds only a buffer's first byte, which
// boxes nothing.
var largeFrames [maxPayloadClass + 1]sync.Pool

// frameClass returns the size class of an n-byte payload: log2 of its
// buffer's size.
func frameClass(n int) int { return bits.Len(uint(n - 1)) }

// getLargeFrame returns n bytes for a payload above maxKeptFrame, in a
// pooled buffer of its class when there is one. The bytes are not zeroed;
// readMsg overwrites every one.
func getLargeFrame(n int) []byte {
	k := frameClass(n)
	if p, _ := largeFrames[k].Get().(*byte); p != nil {
		return unsafe.Slice(p, 1<<k)[:n]
	}
	return make([]byte, n, 1<<k)
}

// ReleaseFrame gives frame, a payload readMsg read above maxKeptFrame,
// back to its class's pool: a query frame once the server has flushed its
// reply, or a stream chunk's frame, as ExecStreamFrames handed it to its
// sink, once the chunk's last holder is done with it. The caller must hold
// no alias of frame, a statement of the chunk included: the next large
// frame read anywhere in the process may land in it. A smaller frame is a
// connection's read buffer or a copy, and is left alone, as is a buffer
// getLargeFrame did not make.
func ReleaseFrame(frame []byte) {
	if len(frame) <= maxKeptFrame {
		return
	}
	if k := frameClass(len(frame)); cap(frame) == 1<<k {
		largeFrames[k].Put(unsafe.SliceData(frame))
	}
}

// frameBufPool recycles payload encode buffers on the server's hot send
// paths: result and stream-end frames. Reuse is safe because each
// connection is driven by one goroutine at a time and writeMsg hands the
// bytes to the writer synchronously, so a buffer may return to the pool as
// soon as writeMsg does. Like a connection's read buffer, a pooled buffer
// is at most maxKeptFrame: one that grew past it (a non-streamed DUMP, an
// unbounded SELECT) is left to the collector, so the next point read is
// never handed hundreds of KB to pin. Queries and stream chunks never pass
// through the pool: they are written straight from their own bytes (see
// writeQuery and writeStreamChunk).
var frameBufPool = sync.Pool{
	New: func() any { return &frameBuf{buf: make([]byte, 0, 1024)} },
}

type frameBuf struct{ buf []byte }

func getFrameBuf() *frameBuf { return frameBufPool.Get().(*frameBuf) }

func putFrameBuf(f *frameBuf) {
	if cap(f.buf) > maxKeptFrame {
		return
	}
	f.buf = f.buf[:0]
	frameBufPool.Put(f)
}

// ServerError is an error reported by the remote server (as opposed to a
// transport failure). The middleware relays these to customers verbatim.
type ServerError struct {
	Msg string
}

func (e *ServerError) Error() string { return e.Msg }

// writeMsg buffers one frame in w; the caller's Flush sends it. The header
// is built in w's free space, so a frame that fits the buffer reaches the
// socket in that one Flush and allocates nothing.
func writeMsg(w *bufio.Writer, typ byte, payload []byte) error {
	hdr := binary.BigEndian.AppendUint32(append(w.AvailableBuffer(), typ), uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// writeQuery buffers one query frame in w: the trace context tc, when not
// nil, then sql. The header and the context are built in w's free space
// and sql is written from the caller's string, so a query of any size is
// never copied into a payload buffer first.
func writeQuery(w *bufio.Writer, typ byte, tc *TraceContext, sql string) error {
	b := append(w.AvailableBuffer(), typ, 0, 0, 0, 0)
	if tc != nil {
		b = appendTraceContext(b, tc)
	}
	binary.BigEndian.PutUint32(b[1:], uint32(len(b)-msgHeaderLen+len(sql)))
	if _, err := w.Write(b); err != nil {
		return err
	}
	_, err := w.Write(stringBytes(sql))
	return err
}

// writeStreamChunk buffers one MsgStreamChunk frame in w, chunk seq of
// stmts (EncodeStreamChunk's payload), each statement written from the
// caller's string: a DUMP STREAM chunk goes from the buffer the dump built
// it in to the socket with no copy of its own. It returns the payload size.
func writeStreamChunk(w *bufio.Writer, seq uint32, stmts []string) (int, error) {
	n := 8
	for _, s := range stmts {
		n += 4 + len(s)
	}
	b := binary.BigEndian.AppendUint32(append(w.AvailableBuffer(), MsgStreamChunk), uint32(n))
	b = binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(b, seq), uint32(len(stmts)))
	if _, err := w.Write(b); err != nil {
		return n, err
	}
	for _, s := range stmts {
		if _, err := w.Write(binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(len(s)))); err != nil {
			return n, err
		}
		if _, err := w.Write(stringBytes(s)); err != nil {
			return n, err
		}
	}
	return n, nil
}

// stringBytes is s's bytes, not copied, for a writer that only reads them.
func stringBytes(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// readMsg reads one frame. The payload lands in *buf, the connection's own
// read buffer, grown as needed and kept while it is at most maxKeptFrame; a
// larger payload gets a buffer of its own from largeFrames. Either way the
// payload is valid only until the next readMsg on the same connection: a
// caller that keeps bytes past that takes them through ownedPayload.
func readMsg(r *bufio.Reader, buf *[]byte) (byte, []byte, error) {
	hdr, err := r.Peek(msgHeaderLen)
	if err != nil {
		return 0, nil, err
	}
	typ, n := hdr[0], binary.BigEndian.Uint32(hdr[1:])
	_, _ = r.Discard(msgHeaderLen) // cannot fail: Peek buffered the header
	if n > maxPayload {
		return 0, nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	var payload []byte
	if n <= maxKeptFrame {
		*buf = slices.Grow((*buf)[:0], int(n))
		payload = (*buf)[:n]
	} else {
		payload = getLargeFrame(int(n))
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

// ownedPayload returns payload, as readMsg returned it, as bytes the caller may
// keep: a payload above maxKeptFrame already has a buffer of its own, which
// the caller may give back with ReleaseFrame once done, and a smaller one
// is copied out of the connection's.
func ownedPayload(payload []byte) []byte {
	if len(payload) > maxKeptFrame {
		return payload
	}
	return bytes.Clone(payload)
}

// --- Result encoding ---

type encoder struct{ buf []byte }

func (e *encoder) u32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

func (e *encoder) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) value(v sqlmini.Value) {
	e.buf = append(e.buf, byte(v.Kind))
	switch v.Kind {
	case sqlmini.KindNull:
	case sqlmini.KindInt, sqlmini.KindFloat: // a FLOAT's Int is its IEEE-754 bits
		e.u64(uint64(v.Int))
	case sqlmini.KindText:
		e.str(v.Str)
	case sqlmini.KindBool:
		e.buf = append(e.buf, byte(v.Int))
	}
}

type decoder struct {
	buf []byte
	off int
}

func (d *decoder) u32() (uint32, error) {
	if d.off+4 > len(d.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if d.off+8 > len(d.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) str() (string, error) {
	b, err := d.bytes()
	return string(b), err
}

// bytes reads a length-prefixed string's bytes, not copied.
func (d *decoder) bytes() ([]byte, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	if uint64(n) > uint64(len(d.buf)-d.off) {
		return nil, io.ErrUnexpectedEOF
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

func (d *decoder) byte() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *decoder) value() (sqlmini.Value, error) {
	k, err := d.byte()
	if err != nil {
		return sqlmini.Value{}, err
	}
	switch sqlmini.ValueKind(k) {
	case sqlmini.KindNull:
		return sqlmini.Null(), nil
	case sqlmini.KindInt:
		v, err := d.u64()
		return sqlmini.NewInt(int64(v)), err
	case sqlmini.KindFloat:
		v, err := d.u64()
		return sqlmini.NewFloat(math.Float64frombits(v)), err
	case sqlmini.KindText:
		s, err := d.str()
		return sqlmini.NewText(s), err
	case sqlmini.KindBool:
		b, err := d.byte()
		return sqlmini.NewBool(b != 0), err
	}
	return sqlmini.Value{}, fmt.Errorf("wire: bad value kind %d", k)
}

// EncodeStreamChunk serializes one stream chunk: its sequence number
// (contiguous from 0, assigned by the server) and its statements.
func EncodeStreamChunk(seq uint32, stmts []string) []byte {
	e := encoder{}
	e.u32(seq)
	e.u32(uint32(len(stmts)))
	for _, s := range stmts {
		e.str(s)
	}
	return e.buf
}

// DecodeStreamChunk parses an encoded stream chunk, which is the whole of
// buf: bytes after its last statement are an error. The statements alias
// buf, which the caller must own and never write again: a restore chunk
// goes from the frame it arrived in to the slaves with no copy.
func DecodeStreamChunk(buf []byte) (uint32, []string, error) {
	d := decoder{buf: buf}
	seq, err := d.u32()
	if err != nil {
		return 0, nil, err
	}
	n, err := d.count() // a statement takes at least its four length bytes
	if err != nil {
		return 0, nil, err
	}
	stmts := make([]string, n)
	for i := range stmts {
		b, err := d.bytes()
		if err != nil {
			return 0, nil, err
		}
		stmts[i] = unsafe.String(unsafe.SliceData(b), len(b))
	}
	if d.off != len(buf) {
		return 0, nil, fmt.Errorf("wire: %d bytes after the stream chunk's last statement", len(buf)-d.off)
	}
	return seq, stmts, nil
}

// EncodeStreamEnd serializes the stream trailer: how many chunks preceded
// it (the client cross-checks for silent truncation) and the final result.
func EncodeStreamEnd(chunks uint32, res *engine.Result) []byte {
	var e encoder
	e.u32(chunks)
	return AppendResult(e.buf, res)
}

// DecodeStreamEnd parses an encoded stream trailer.
func DecodeStreamEnd(buf []byte) (uint32, *engine.Result, error) {
	d := decoder{buf: buf}
	chunks, err := d.u32()
	if err != nil {
		return 0, nil, err
	}
	res, err := DecodeResult(buf[d.off:])
	return chunks, res, err
}

// AppendResult encodes an engine result as a MsgResult payload appended to
// dst, and returns the extended buffer.
func AppendResult(dst []byte, res *engine.Result) []byte {
	e := encoder{buf: dst}
	e.str(res.Tag)
	e.u32(uint32(res.Affected))
	e.u32(uint32(len(res.Columns)))
	for _, c := range res.Columns {
		e.str(c)
	}
	e.u32(uint32(len(res.Rows)))
	for _, row := range res.Rows {
		e.u32(uint32(len(row)))
		for _, v := range row {
			e.value(v)
		}
	}
	return e.buf
}

// DecodeResult parses an encoded engine result.
func DecodeResult(buf []byte) (*engine.Result, error) {
	d := decoder{buf: buf}
	res := &engine.Result{}
	var err error
	if res.Tag, err = d.str(); err != nil {
		return nil, err
	}
	aff, err := d.u32()
	if err != nil {
		return nil, err
	}
	res.Affected = int(aff)
	ncols, err := d.count() // a column name takes at least four bytes
	if err != nil {
		return nil, err
	}
	res.Columns = make([]string, ncols)
	for i := range res.Columns {
		if res.Columns[i], err = d.str(); err != nil {
			return nil, err
		}
	}
	nrows, err := d.count() // so does a row, its width alone
	if err != nil {
		return nil, err
	}
	// Every row's values come from one array sized for rows as wide as the
	// header, which is every engine result; a wider row makes append move
	// on to a new array, and full slice expressions keep the rows apart.
	res.Rows = make([][]sqlmini.Value, nrows)
	vals := make([]sqlmini.Value, 0, min(nrows*ncols, len(d.buf)-d.off))
	for i := range res.Rows {
		nvals, err := d.u32()
		if err != nil {
			return nil, err
		}
		start := len(vals)
		for j := uint32(0); j < nvals; j++ {
			v, err := d.value()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
		res.Rows[i] = vals[start:len(vals):len(vals)]
	}
	return res, nil
}

// ResultTagIs reports whether an encoded MsgResult payload carries tag. The
// tag is the payload's first field, so nothing is decoded or allocated.
func ResultTagIs(payload []byte, tag string) bool {
	if len(payload) < 4+len(tag) || binary.BigEndian.Uint32(payload) != uint32(len(tag)) {
		return false
	}
	return string(payload[4:4+len(tag)]) == tag
}

// count reads a u32 count of elements that take at least four bytes each,
// and rejects one that the remaining bytes cannot hold.
func (d *decoder) count() (int, error) {
	n, err := d.u32()
	if err != nil {
		return 0, err
	}
	if uint64(n) > uint64((len(d.buf)-d.off)/4) {
		return 0, io.ErrUnexpectedEOF
	}
	return int(n), nil
}
