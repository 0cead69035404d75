package engine

import (
	"fmt"
	"sort"

	"madeus/internal/mvcc"
	"madeus/internal/sqlmini"
	"madeus/internal/storage"
)

// DefaultDumpChunk is the statements-per-chunk DUMP STREAM uses when the
// client does not name a chunk size.
const DefaultDumpChunk = 64

// Dump serializes the session's database as a SQL script at one consistent
// SI snapshot (the paper's Step-1 "dump transaction": snapshot creation runs
// concurrently with customer transactions and never blocks them). The
// script is the whole schema first — every CREATE TABLE followed by its
// CREATE INDEXes, in table order — and then batched INSERTs, in
// deterministic (table, primary key) order, so two consistent states always
// dump to identical scripts.
// When the session has an open transaction block, the dump uses that
// transaction's snapshot (pin it first with the SNAPSHOT command);
// otherwise it runs in its own read-only transaction.
func (s *Session) Dump() ([]string, error) {
	var script []string
	if _, err := s.DumpStream(0, func(stmts []string) error {
		script = append(script, stmts...)
		return nil
	}); err != nil {
		return nil, err
	}
	return script, nil
}

// DumpStream is the cursor form of Dump: it produces the identical
// statement sequence but hands it to sink in chunks, so a caller can ship
// and restore the snapshot while the scan is still running instead of
// materializing the whole script. Chunk 0 is the schema prologue, whole and
// alone whatever its size; every later chunk holds only INSERTs, at most
// maxStmts of them (maxStmts <= 0: all rows in one chunk). A restorer can
// therefore apply chunk 0 serially and every other chunk as one transaction,
// in parallel.
//
// Each chunk slice is owned by the sink (the iterator never reuses it), so
// sinks may hand chunks to other goroutines. Table.Scan invokes its row
// callback with no storage locks held, which is what makes it safe for a
// sink to block on a bounded channel or a byte budget: backpressure here
// pauses the dump, never customer transactions. A sink error stops the
// scan and is returned verbatim. Returns the statements emitted.
func (s *Session) DumpStream(maxStmts int, sink func(stmts []string) error) (int, error) {
	txn := s.txn
	if s.inTxn && txn != nil && !txn.Done() {
		// Use the block's snapshot; the client owns the commit.
	} else {
		txn = s.db.mgr.Begin()
		defer txn.Commit()
	}

	total := 0
	var chunk []string
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		out := chunk
		chunk = nil
		total += len(out)
		return sink(out)
	}

	var tables []*mvcc.Table
	for _, name := range s.db.Tables() {
		tb, ok := s.db.table(name)
		if !ok {
			continue
		}
		tables = append(tables, tb)
		chunk = append(chunk, schemaSQL(tb.Schema, tb.Indexes())...)
	}
	if err := flush(); err != nil {
		return total, err
	}

	for _, tb := range tables {
		if err := scanInserts(tb, txn, s.eng.opts.DumpBatch, func(stmt []byte) error {
			chunk = append(chunk, string(stmt))
			if maxStmts > 0 && len(chunk) >= maxStmts {
				return flush()
			}
			return nil
		}); err != nil {
			return total, err
		}
	}
	return total, flush()
}

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

// scanInserts renders the rows of tb visible to txn, in primary-key order, as
// the batched INSERTs of a dump, at most batch rows each, and hands each
// statement to emit. All of them are built in one reused buffer, so emit
// borrows stmt until it returns. An emit error stops the scan and is
// returned verbatim.
func scanInserts(tb *mvcc.Table, txn *mvcc.Txn, batch int, emit func(stmt []byte) error) error {
	buf := appendInsertHead(nil, tb.Schema)
	head, rows := len(buf), 0
	var err error
	flush := func() bool {
		if rows > 0 {
			err = emit(buf)
			buf, rows = buf[:head], 0
		}
		return err == nil
	}
	r := make(storage.Row, len(tb.Schema.Columns))
	tb.ScanRecs(txn, func(rec mvcc.Rec) bool {
		rec.Decode(r, mvcc.AllCols)
		if rows > 0 {
			buf = append(buf, ", "...)
		}
		buf = appendTuple(buf, r)
		rows++
		return rows < batch || flush()
	})
	if err == nil {
		flush()
	}
	return err
}

// Restore executes a dump script against the session's database, one
// autocommitted statement at a time. Each INSERT batch pays a WAL commit,
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
			return false, fmt.Sprintf("line %d differs:\n  a: %s\n  b: %s", i, da[i], db[i]), nil
		}
	}
	return true, "", nil
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
