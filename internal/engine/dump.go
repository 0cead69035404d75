package engine

import (
	"fmt"
	"sort"
	"strings"
	"unsafe"

	"madeus/internal/mvcc"
	"madeus/internal/sqlmini"
	"madeus/internal/storage"
)

// DefaultDumpChunk is the sections per chunk DUMP STREAM uses when the
// client does not name a chunk size.
const DefaultDumpChunk = 64

// Dump serializes the session's database as a script at one consistent SI
// snapshot (the paper's Step-1 "dump transaction": snapshot creation runs
// concurrently with customer transactions and never blocks them). The
// script is the whole schema first — every CREATE TABLE followed by its
// CREATE INDEXes, in table order — and then row statements of one section
// of DumpBatch rows each (see IsRowStatement), in deterministic (table,
// primary key) order, so two consistent states always dump to identical
// scripts. The DUMP command answers the same script with its rows as
// INSERT text. When the session has an open transaction block, the dump
// uses that transaction's snapshot (pin it first with the SNAPSHOT
// command); otherwise it runs in its own read-only transaction.
func (s *Session) Dump() ([]string, error) { return s.dump(false) }

// dump is Dump; with asSQL, the script the DUMP command answers: each row
// statement rendered as INSERT text by the table handle it was scanned
// from, so a DROP or re-CREATE racing the dump cannot change how it reads.
func (s *Session) dump(asSQL bool) ([]string, error) {
	var script []string
	if _, err := s.dumpStream(1, asSQL, func(stmts []string) error {
		for _, stmt := range stmts {
			script = append(script, strings.Clone(stmt))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return script, nil
}

// DumpStream is the cursor form of Dump: it produces the same schema and
// the same rows in the same order, but hands them to sink in chunks, so a
// caller can ship and restore the snapshot while the scan is still running
// instead of materializing the whole script. Chunk 0 is the schema
// prologue, whole and alone whatever its size; every later chunk is one row
// statement, at most maxSections of Dump's joined (maxSections <= 0: all of
// Dump's row statements, as they are, in one chunk). A restorer can
// therefore apply chunk 0 serially and every other chunk as one
// transaction, in parallel.
//
// Each chunk, its slice and its strings, is owned by the sink, so sinks may
// hand chunks to other goroutines. Table.Scan invokes its row callback with
// no storage locks held, which is what makes it safe for a sink to block on
// a bounded channel or a byte budget: backpressure here pauses the dump,
// never customer transactions. A sink error stops the scan and is returned
// verbatim. Returns the statements emitted.
func (s *Session) DumpStream(maxSections int, sink func(stmts []string) error) (int, error) {
	var rows []string // maxSections <= 0: the one row chunk
	total, err := s.dumpStream(max(maxSections, 1), false, func(stmts []string) error {
		owned := make([]string, len(stmts))
		for i, stmt := range stmts {
			owned[i] = strings.Clone(stmt)
		}
		if maxSections > 0 || !IsRowStatement(owned[0]) {
			return sink(owned)
		}
		rows = append(rows, owned...)
		return nil
	})
	if err == nil && len(rows) > 0 {
		err = sink(rows)
	}
	return total, err
}

// dumpStream is DumpStream lending its chunks: emit borrows each chunk, its
// slice and its strings, until it returns, and a row chunk's statement is
// the buffer the scan builds it in. With asSQL, each section goes to emit as
// INSERT text, a statement of its own whatever maxSections is (see dump).
func (s *Session) dumpStream(maxSections int, asSQL bool, emit func(stmts []string) error) (int, error) {
	txn := s.txn
	if s.inTxn && txn != nil && !txn.Done() {
		// Use the block's snapshot; the client owns the commit.
	} else {
		txn = s.db.mgr.Begin()
		defer txn.Commit()
	}

	var tables []*mvcc.Table
	var schema []string
	for _, name := range s.db.Tables() {
		tb, ok := s.db.table(name)
		if !ok {
			continue
		}
		tables = append(tables, tb)
		schema = append(schema, schemaSQL(tb.Schema, tb.Indexes())...)
	}
	total := 0
	if len(schema) > 0 {
		total = len(schema)
		if err := emit(schema); err != nil {
			return total, err
		}
	}

	kept := s.eng.dumpBuf.Swap(nil)
	if kept == nil {
		kept = new(dumpBuf) // first dump, or one beside another
	}
	stmt := kept.b
	var text []byte
	defer func() {
		if cap(stmt) <= maxKeptDump {
			kept.b = stmt[:0]
			s.eng.dumpBuf.Store(kept)
		}
	}()
	lent := make([]string, 1)
	send := func(b []byte) error {
		lent[0] = unsafe.String(unsafe.SliceData(b), len(b))
		total++
		return emit(lent)
	}
	sections := 0
	for _, tb := range tables {
		var err error
		stmt, err = scanRows(stmt, tb, txn, s.eng.opts.DumpBatch, func(b []byte) ([]byte, error) {
			if asSQL {
				_, rows, _, err := nextSection(b)
				if err == nil {
					text, err = appendRowsSQL(text[:0], tb, rows)
				}
				if err == nil {
					err = send(text)
				}
				return b[:0], err
			}
			if sections++; sections < maxSections {
				return b, nil
			}
			sections = 0
			return b[:0], send(b)
		})
		if err != nil {
			return total, err
		}
	}
	if len(stmt) > 0 {
		return total, send(stmt)
	}
	return total, nil
}

// maxKeptDump bounds the statement buffer an engine keeps between dumps.
// A DUMP STREAM chunk of the middleware's size (DefaultDumpChunk sections
// of DumpBatch rows) is a few hundred KB on TPC-W's widest rows; a buffer a
// far larger chunk grew is left to the collector.
const maxKeptDump = 4 << 20

// dumpBuf is the buffer dumpStream builds row statements in. A migration's
// control session dumps once and is closed, so a buffer the session kept
// would be grown again from nothing by every migration: the engine keeps
// it instead, from one dump to the next (Engine.dumpBuf).
type dumpBuf struct{ b []byte }

// schemaSQL returns the DDL that recreates a table: its CREATE TABLE, then a
// CREATE INDEX per secondary index (name -> column) in name order.
func schemaSQL(schema *storage.Schema, indexes map[string]string) []string {
	ct := &sqlmini.CreateTable{Table: schema.Name}
	for _, c := range schema.Columns {
		ct.Columns = append(ct.Columns, sqlmini.ColumnDef(c))
	}
	out := []string{ct.String()}
	for name, col := range indexes {
		out = append(out, (&sqlmini.CreateIndex{Name: name, Table: schema.Name, Column: col}).String())
	}
	sort.Strings(out[1:]) // index names are word characters: this is name order
	return out
}

// Restore executes a dump script against the session's database, one
// autocommitted statement at a time. Each row statement pays a WAL commit,
// which is why creating a slave takes longer than dumping the master
// (Sec 5.5): restores go through the full write path.
func (s *Session) Restore(script []string) error {
	if s.inTxn {
		return fmt.Errorf("engine: RESTORE inside a transaction block")
	}
	for _, stmt := range script {
		if _, err := s.Exec(stmt); err != nil {
			return fmt.Errorf("engine: restore: %w", err)
		}
	}
	return nil
}

// StateEqual reports whether two databases hold identical visible states,
// by comparing their canonical dumps. Used by the migration consistency
// tests (Theorem 2).
func StateEqual(a, b *Session) (bool, string, error) {
	da, err := a.Dump()
	if err != nil {
		return false, "", err
	}
	db, err := b.Dump()
	if err != nil {
		return false, "", err
	}
	if len(da) != len(db) {
		return false, fmt.Sprintf("dump lengths differ: %d vs %d", len(da), len(db)), nil
	}
	for i := range da {
		if da[i] != db[i] {
			return false, fmt.Sprintf("line %d differs:\n  a: %s\n  b: %s", i, sqlLine(a, i), sqlLine(b, i)), nil
		}
	}
	return true, "", nil
}

// sqlLine is line i of s's DUMP text, for a mismatch message.
func sqlLine(s *Session, i int) string {
	script, err := s.dump(true)
	if err != nil || i >= len(script) {
		return fmt.Sprintf("(line %d does not render: %v)", i, err)
	}
	return script[i]
}

// RowCount returns the number of visible rows in the named table (testing
// and monitoring helper).
func (s *Session) RowCount(table string) (int, error) {
	res, err := s.Exec("SELECT COUNT(*) FROM " + table)
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 || res.Rows[0][0].Kind != sqlmini.KindInt {
		return 0, fmt.Errorf("engine: unexpected COUNT result")
	}
	return int(res.Rows[0][0].Int), nil
}
