package engine

import (
	"fmt"
	"sort"
	"strings"

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
		chunk = append(chunk, createTableSQL(tb.Schema))
		idxs := tb.Indexes()
		idxNames := make([]string, 0, len(idxs))
		for n := range idxs {
			idxNames = append(idxNames, n)
		}
		sort.Strings(idxNames)
		for _, n := range idxNames {
			chunk = append(chunk, fmt.Sprintf("CREATE INDEX %s ON %s (%s)", n, name, idxs[n]))
		}
	}
	if err := flush(); err != nil {
		return total, err
	}

	for _, tb := range tables {
		schema := tb.Schema
		cols := make([]string, len(schema.Columns))
		for i, c := range schema.Columns {
			cols[i] = c.Name
		}
		header := fmt.Sprintf("INSERT INTO %s (%s) VALUES ", schema.Name, strings.Join(cols, ", "))

		var batch []string
		var sinkErr error
		flushBatch := func() error {
			if len(batch) == 0 {
				return nil
			}
			chunk = append(chunk, header+strings.Join(batch, ", "))
			batch = batch[:0]
			if maxStmts > 0 && len(chunk) >= maxStmts {
				return flush()
			}
			return nil
		}
		tb.Scan(txn, func(r storage.Row) bool {
			vals := make([]string, len(r))
			for i, v := range r {
				vals[i] = v.String()
			}
			batch = append(batch, "("+strings.Join(vals, ", ")+")")
			if len(batch) >= s.eng.opts.DumpBatch {
				if err := flushBatch(); err != nil {
					sinkErr = err
					return false
				}
			}
			return true
		})
		if sinkErr != nil {
			return total, sinkErr
		}
		if err := flushBatch(); err != nil {
			return total, err
		}
	}
	return total, flush()
}

func createTableSQL(schema *storage.Schema) string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE ")
	sb.WriteString(schema.Name)
	sb.WriteString(" (")
	for i, c := range schema.Columns {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.Name)
		sb.WriteString(" ")
		sb.WriteString(c.Type.String())
		if c.PrimaryKey {
			sb.WriteString(" PRIMARY KEY")
		}
	}
	sb.WriteString(")")
	return sb.String()
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
