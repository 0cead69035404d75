package mvcc

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"madeus/internal/sqlmini"
	"madeus/internal/storage"
)

// Row storage (DESIGN.md §5i "Row storage"): every version's row is encoded
// into a table's append-only byte pages, and a version holds only where —
// a ref. Neither pages nor version arrays hold a pointer, so the collector
// never walks a table's rows however many it stores.
//
// A row of n columns is n kind bytes, then one 8-byte little-endian slot
// per column — an INT, the bits of a FLOAT, a BOOL as 0 or 1, a TEXT's
// offset in the row and length as two uint32s, zero for NULL — and then the
// TEXTs' bytes. So any column decodes in O(1), without walking the ones
// before it: a scan decodes of each row only the columns it decides on.
//
// Bytes once written are never rewritten: compaction copies the live rows
// into fresh pages and drops the old ones, which the collector frees once no
// decoded value points into them. That is why a decoded TEXT may alias its
// page instead of being copied out, and why a decoded value stays valid for
// as long as anyone keeps it.

const (
	// pageSize is the size of a full page. A row larger than a page gets a
	// page of its own.
	pageSize = 64 << 10
	// firstPage is the size of a cursor's first page; each next one is
	// twice the last, up to pageSize, so a small table does not hold a full
	// page per stripe.
	firstPage = 4 << 10
)

// ref locates an encoded row: its page number << 32 | its byte offset.
type ref uint64

func (r ref) page() int { return int(r >> 32) }
func (r ref) off() int  { return int(uint32(r)) }

// pageCursor is the page one stripe appends rows to, so that writers of
// different stripes do not serialise on one allocator.
type pageCursor struct {
	mu   sync.Mutex //madeusvet:lockrank mvcc-page 47
	page []byte     // the open page; bytes at used and beyond are unwritten
	num  uint32     // its page number
	used int
	// written counts the bytes this cursor has spent since the table's last
	// compaction: rows, and the page tails left unwritten.
	written int64
}

// rowSize returns the encoded size of row.
func rowSize(row storage.Row) int {
	n := 9 * len(row)
	for i := range row {
		if row[i].Kind == sqlmini.KindText {
			n += len(row[i].Str)
		}
	}
	return n
}

// appendRow appends the encoding of row to dst, each value as its column of
// sch stores it (see storage.Schema.Widen).
func appendRow(dst []byte, sch *storage.Schema, row storage.Row) []byte {
	base, n := len(dst), len(row)
	dst = slices.Grow(dst, rowSize(row))[:base+9*n]
	clear(dst[base:])
	for i, v := range row {
		v = sch.Widen(i, v)
		dst[base+i] = byte(v.Kind)
		slot := base + n + 8*i
		switch v.Kind {
		case sqlmini.KindNull:
		case sqlmini.KindText:
			binary.LittleEndian.PutUint32(dst[slot:], uint32(len(dst)-base))
			binary.LittleEndian.PutUint32(dst[slot+4:], uint32(len(v.Str)))
			dst = append(dst, v.Str...)
		default:
			binary.LittleEndian.PutUint64(dst[slot:], uint64(v.Int))
		}
	}
	return dst
}

// decodeRow decodes the row at the start of b into dst, as wide as the row.
// A TEXT aliases b.
func decodeRow(b []byte, dst storage.Row) {
	for i := range dst {
		dst[i] = value(b, i, len(dst))
	}
}

// value decodes column i of the n-column row at the start of b.
func value(b []byte, i, n int) sqlmini.Value {
	kind := sqlmini.ValueKind(b[i])
	slot := b[n+8*i : n+8*i+8]
	switch kind {
	case sqlmini.KindNull:
		return sqlmini.Value{}
	case sqlmini.KindText:
		off, l := binary.LittleEndian.Uint32(slot), binary.LittleEndian.Uint32(slot[4:])
		if l == 0 {
			return sqlmini.Value{Kind: kind}
		}
		return sqlmini.Value{Kind: kind, Str: unsafe.String(&b[off], l)}
	}
	return sqlmini.Value{Kind: kind, Int: int64(binary.LittleEndian.Uint64(slot))}
}

// pageDir returns the table's page directory, indexed by page number. An
// entry never changes once published except to nil when compaction drops the
// page, and it is dropped only after no version refers to it any more. So a
// caller that loads the directory while it holds the lock of the chain whose
// ref it resolves may read that ref's bytes after letting the lock go.
func (tb *Table) pageDir() [][]byte { return *tb.pages.Load() }

// bytesAt returns the encoded row at r and everything after it in its page.
func bytesAt(dir [][]byte, r ref) []byte { return dir[r.page()][r.off():] }

// EncodedSize returns the size of the row encoded at the start of b, one of
// the table's own: a Rec, or a page's bytes.
func (tb *Table) EncodedSize(b []byte) int {
	n := len(tb.Schema.Columns)
	size := 9 * n
	for i := range n {
		if sqlmini.ValueKind(b[i]) == sqlmini.KindText {
			size += int(binary.LittleEndian.Uint32(b[n+8*i+4:]))
		}
	}
	return size
}

// DecodeRec decodes the row encoded at the start of b into dst, as wide as
// the table's rows, and returns the row's size. Unlike Rec.Decode it trusts
// nothing in b: it accepts only what the table stores for a row — each kind
// its column's type or NULL, a NULL's slot zero, a BOOL 0 or 1, each TEXT's
// bytes right after the previous one's and inside b — so a row it accepts
// encodes back to the same bytes. A TEXT aliases b.
func (tb *Table) DecodeRec(b []byte, dst storage.Row) (int, error) {
	size, err := tb.checkRec(b)
	if err != nil {
		return 0, err
	}
	decodeRow(b, dst)
	return size, nil
}

// checkRec is DecodeRec's check of the row encoded at the start of b, with
// nothing decoded: it returns the row's size, or why the table would not
// store those bytes as a row.
func (tb *Table) checkRec(b []byte) (int, error) {
	n := len(tb.Schema.Columns)
	size := 9 * n
	if len(b) < size {
		return 0, fmt.Errorf("mvcc: table %s: row of %d bytes, want at least %d", tb.Schema.Name, len(b), size)
	}
	for i, c := range tb.Schema.Columns {
		kind, x := sqlmini.ValueKind(b[i]), binary.LittleEndian.Uint64(b[n+8*i:])
		ok := kind == sqlmini.KindNull && x == 0 ||
			kind == c.Type && (kind != sqlmini.KindBool || x <= 1)
		if ok && kind == sqlmini.KindText {
			off, l := uint32(x), x>>32
			ok = int(off) == size && l <= uint64(len(b)-size)
			size += int(l)
		}
		if !ok {
			return 0, fmt.Errorf("mvcc: table %s: column %s: malformed %s", tb.Schema.Name, c.Name, kind)
		}
	}
	return size, nil
}

// Cols is a set of a table's columns, bit i for column i. A column past the
// 64th is always in it.
type Cols uint64

// AllCols is every column.
const AllCols = ^Cols(0)

// Rec is the encoding of one row version, in its page. Pages are never
// rewritten, so a Rec, and every value decoded from it, stays valid as long
// as anyone keeps it.
type Rec []byte

// rec returns the encoding at r. The caller holds the lock of the chain r
// belongs to.
func (tb *Table) rec(r ref) Rec { return Rec(bytesAt(tb.pageDir(), r)) }

// Decode decodes the columns in need into dst, which is as wide as the
// row, and leaves dst's other values as they are.
func (rec Rec) Decode(dst storage.Row, need Cols) {
	n := len(dst)
	if need == AllCols || n > 64 {
		decodeRow(rec, dst)
		return
	}
	for m := uint64(need) & (1<<n - 1); m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		dst[i] = value(rec, i, n)
	}
}

// column decodes only column col of the row at r. The caller holds the lock
// of the chain r belongs to.
func (tb *Table) column(r ref, col int) sqlmini.Value {
	return value(bytesAt(tb.pageDir(), r), col, len(tb.Schema.Columns))
}

// store encodes row into c's open page and returns where it landed. The
// caller holds the lock of the chain the row's version goes into, which is
// what lets compaction tell rows written before it started from those
// written after (see compact).
func (tb *Table) store(c *pageCursor, row storage.Row) ref {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, r := tb.reserve(c, rowSize(row))
	appendRow(b[:0], tb.Schema, row)
	return r
}

// storeEncoded copies an encoded row into c's open page and returns where it
// landed.
func (tb *Table) storeEncoded(c *pageCursor, enc []byte) ref {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, r := tb.reserve(c, len(enc))
	copy(b, enc)
	return r
}

// reserve returns n unwritten bytes of c's open page and their ref, opening
// the next page when the open one has no room, or a page of their own when
// n exceeds a page. Caller holds c.mu.
func (tb *Table) reserve(c *pageCursor, n int) ([]byte, ref) {
	c.written += int64(n)
	if n > pageSize {
		p, num := tb.addPage(n)
		return p, ref(uint64(num) << 32)
	}
	if n > len(c.page)-c.used {
		size := firstPage
		if c.page != nil {
			c.written += int64(len(c.page) - c.used) // the tail stays unwritten
			size = min(2*len(c.page), pageSize)
		}
		for size < n {
			size *= 2
		}
		c.page, c.num = tb.addPage(size)
		c.used = 0
	}
	b, r := c.page[c.used:c.used+n], ref(uint64(c.num)<<32|uint64(c.used))
	c.used += n
	return b, r
}

// addPage appends a zeroed page of size bytes to the directory and returns
// it and its number. An element of a published directory is never written:
// growth writes past its length, compaction builds a new array.
func (tb *Table) addPage(size int) ([]byte, uint32) {
	p := make([]byte, size)
	tb.pagesMu.Lock()
	dir := append(tb.pageDir(), p)
	tb.pages.Store(&dir)
	tb.pagesMu.Unlock()
	return p, uint32(len(dir) - 1)
}
