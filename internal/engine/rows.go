package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"madeus/internal/mvcc"
	"madeus/internal/sqlmini"
	"madeus/internal/storage"
	"madeus/internal/wal"
)

// A row statement carries a dump's rows in the table's own, position-free
// row encoding (mvcc's pages), so a restored row is never rendered or
// parsed. It is one or more little-endian sections, each
//
//	0x00 | u16 name length | table name | u32 byte length | encoded rows
//
// with the rows in key order. No SQL text starts with a NUL byte, and row
// statements joined end to end are one. The engine applies one as it does
// a literal INSERT, its own redo record (DESIGN.md §5e, "Rows, not SQL").
const rowMark = 0x00

// IsRowStatement reports whether stmt is a row statement. Only a dump makes
// them: a middleware must never relay one from a client, whose write would
// then bypass its capture.
func IsRowStatement(stmt string) bool { return len(stmt) > 0 && stmt[0] == rowMark }

// Sections returns how many sections the row statement stmt holds, read
// from their heads alone: the number of Dump's statements it joins. SQL
// text holds none, and a section cut short is not counted.
func Sections(stmt string) int {
	n := 0
	for b := rowBytes(stmt); len(b) > 0; n++ {
		var err error
		if _, _, b, err = nextSection(b); err != nil {
			break
		}
	}
	return n
}

// scanRows appends the rows of tb visible to txn, in primary-key order, to
// buf as sections of at most batch rows each, and returns buf. Once a
// section is whole it calls cut with buf, which ends in it, and goes on
// appending to the buffer cut returns: buf itself, to add the next section
// to the same row statement, or buf[:0], once cut has passed the statement
// on. So every row statement is built in one reused buffer, which cut
// borrows until it returns. A cut error stops the scan and is returned
// verbatim.
func scanRows(buf []byte, tb *mvcc.Table, txn *mvcc.Txn, batch int, cut func(buf []byte) ([]byte, error)) ([]byte, error) {
	name := tb.Schema.Name
	if len(name) > math.MaxUint16 {
		return buf, fmt.Errorf("engine: table name of %d bytes does not fit a row statement", len(name))
	}
	head, rows := 0, 0
	var err error
	end := func() bool {
		binary.LittleEndian.PutUint32(buf[head-4:], uint32(len(buf)-head))
		buf, err = cut(buf)
		rows = 0
		return err == nil
	}
	tb.ScanRecs(txn, func(rec mvcc.Rec) bool {
		if rows == 0 {
			buf = append(buf, rowMark, byte(len(name)), byte(len(name)>>8))
			buf = append(append(buf, name...), 0, 0, 0, 0)
			head = len(buf)
		}
		buf = append(buf, rec[:tb.EncodedSize(rec)]...)
		rows++
		return rows < batch || end()
	})
	if err == nil && rows > 0 {
		end()
	}
	return buf, err
}

// rowBytes is stmt's bytes, not copied: they are only read, and a decoded
// TEXT aliases them as a parsed one aliases its statement.
func rowBytes(stmt string) []byte { return unsafe.Slice(unsafe.StringData(stmt), len(stmt)) }

// nextSection splits the first section off the row statement b: its table
// name, its encoded rows (at least one byte) and what follows it.
func nextSection(b []byte) (name, rows, rest []byte, err error) {
	if len(b) < 7 || b[0] != rowMark || len(b) < 7+int(binary.LittleEndian.Uint16(b[1:])) {
		return nil, nil, nil, fmt.Errorf("engine: row statement: truncated section head")
	}
	n := int(binary.LittleEndian.Uint16(b[1:]))
	name, b = b[3:3+n], b[3+n:]
	size := binary.LittleEndian.Uint32(b)
	if size == 0 || uint64(size) > uint64(len(b)-4) {
		return nil, nil, nil, fmt.Errorf("engine: row statement: section of %d row bytes in %d", size, len(b)-4)
	}
	return name, b[4 : 4+size], b[4+size:], nil
}

// execRows inserts the rows of a row statement, each section's through
// Table.InsertRecs, which files them a block of keys at a time as their
// bytes stand, and logs the statement as its own redo record. Within a run
// of sections of one table the rows must ascend strictly by key, as a dump
// emits them. Each section takes an execution slot, as the INSERT of a dump
// batch it stands for would, so the CPU model (Options.StmtCost) charges a
// restored row what it did when a dump was SQL.
//
// stmt may be lent, as a node's wire server lends the frame a restore chunk
// arrived in: nothing kept past the call refers to it. The table's pages
// and indexes keep copies, and the log copies the record it keeps.
func (s *Session) execRows(stmt string, out *resultBuf) (*Result, error) {
	release := func() {}
	defer func() { release() }()
	var tb *mvcc.Table
	var last sqlmini.Value // a TEXT key aliases stmt, and dies with the call
	n := 0
	for b := rowBytes(stmt); len(b) > 0; {
		name, rows, rest, err := nextSection(b)
		if err != nil {
			return nil, err
		}
		b = rest
		release()
		release = s.eng.acquireSlot()
		if tb == nil || tb.Schema.Name != string(name) {
			var ok bool
			if tb, ok = s.db.table(string(name)); !ok {
				return nil, fmt.Errorf("engine: table %q does not exist", name)
			}
			last = sqlmini.Value{}
		}
		filed, after, err := tb.InsertRecs(s.txn, rows, last)
		if err != nil {
			return nil, err
		}
		n, last = n+filed, after
	}
	s.eng.logAppend(wal.Record{TxnID: uint64(s.txn.ID), Kind: wal.RecInsert, DB: s.db.Name, Data: stmt})
	return out.counted(insertTag, n), nil
}

// appendRowsSQL appends rows, a section's encoded rows of tb, as one INSERT.
func appendRowsSQL(dst []byte, tb *mvcc.Table, rows []byte) ([]byte, error) {
	dst = appendInsertHead(dst, tb.Schema)
	row := make(storage.Row, len(tb.Schema.Columns))
	for i := 0; len(rows) > 0; i++ {
		size, err := tb.DecodeRec(rows, row)
		if err != nil {
			return dst, err
		}
		rows = rows[size:]
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = appendTuple(dst, row)
	}
	return dst, nil
}
