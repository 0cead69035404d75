package engine

import (
	"fmt"
	"slices"
	"strings"
	"unsafe"

	"madeus/internal/mvcc"
	"madeus/internal/sqlmini"
	"madeus/internal/storage"
	"madeus/internal/wal"
)

// execStatement runs one non-transaction-control statement inside s.txn:
// st bound to args, or the row statement sql when st is nil.
// It acquires an execution slot (the CPU model) for the duration of the
// statement's in-memory work; a row statement, one per section.
// A SELECT's or a write's result is built in out (see resultBuf).
func (s *Session) execStatement(st sqlmini.Statement, args []sqlmini.Value, sql string, out *resultBuf) (*Result, error) {
	if st == nil {
		return s.execRows(sql, out)
	}
	release := s.eng.acquireSlot()
	defer release()
	switch st := st.(type) {
	case *sqlmini.Select:
		return s.execSelect(st, args, out)
	case *sqlmini.Insert:
		return s.execInsert(st, args, sql, out)
	case *sqlmini.Update:
		return s.execUpdate(st, args, out)
	case *sqlmini.Delete:
		return s.execDelete(st, args, out)
	case *sqlmini.CreateTable:
		return s.execCreateTable(st, sql)
	case *sqlmini.DropTable:
		return s.execDropTable(st, sql)
	case *sqlmini.CreateIndex:
		return s.execCreateIndex(st, sql)
	case *sqlmini.DropIndex:
		return s.execDropIndex(st, sql)
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", st)
}

// logDDL records a schema change. DDL is non-transactional — applied
// immediately, replayed at its own LSN — so the catalog mutation and its
// record are fenced together against checkpoints by the caller holding
// ckptMu's read side (a checkpoint must never capture the mutation while
// the record lands on the checkpoint's side of the LSN). The transaction
// scope is marked so COMMIT pays an fsync even if no rows changed. table
// must be a name the catalog owns: the log may keep the record, and sql is
// the only part of it that the log copies.
func (s *Session) logDDL(table, sql string) {
	s.eng.logAppend(wal.Record{Kind: wal.RecDDL, DB: s.db.Name, Table: table, Data: sql})
	s.ddl = true
}

// execCreateTable copies every name it gives the catalog, as
// execCreateIndex does: a statement's names are slices of its text, which
// may be a lent wire frame.
func (s *Session) execCreateTable(st *sqlmini.CreateTable, sql string) (*Result, error) {
	cols := make([]storage.Column, len(st.Columns))
	for i, c := range st.Columns {
		cols[i] = storage.Column{Name: strings.Clone(c.Name), Type: c.Type, PrimaryKey: c.PrimaryKey}
	}
	schema, err := storage.NewSchema(strings.Clone(st.Table), cols)
	if err != nil {
		return nil, err
	}
	s.eng.ckptMu.RLock()
	defer s.eng.ckptMu.RUnlock()
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	if _, ok := s.db.tables[st.Table]; ok {
		return nil, fmt.Errorf("engine: table %q already exists", st.Table)
	}
	s.db.tables[schema.Name] = mvcc.NewTable(schema, s.db.mgr)
	s.db.pcache.InvalidateTable(schema.Name)
	s.logDDL(schema.Name, sql)
	return &Result{Tag: "CREATE TABLE"}, nil
}

func (s *Session) execDropTable(st *sqlmini.DropTable, sql string) (*Result, error) {
	s.eng.ckptMu.RLock()
	defer s.eng.ckptMu.RUnlock()
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	tb, ok := s.db.tables[st.Table]
	if !ok {
		return nil, fmt.Errorf("engine: table %q does not exist", st.Table)
	}
	delete(s.db.tables, st.Table)
	s.db.pcache.InvalidateTable(st.Table)
	s.logDDL(tb.Schema.Name, sql)
	return &Result{Tag: "DROP TABLE"}, nil
}

func (s *Session) execCreateIndex(st *sqlmini.CreateIndex, sql string) (*Result, error) {
	tb, ok := s.db.table(st.Table)
	if !ok {
		return nil, fmt.Errorf("engine: table %q does not exist", st.Table)
	}
	s.eng.ckptMu.RLock()
	defer s.eng.ckptMu.RUnlock()
	if err := tb.CreateIndex(strings.Clone(st.Name), strings.Clone(st.Column)); err != nil {
		return nil, err
	}
	s.db.pcache.InvalidateTable(st.Table)
	s.logDDL(tb.Schema.Name, sql)
	return &Result{Tag: "CREATE INDEX"}, nil
}

func (s *Session) execDropIndex(st *sqlmini.DropIndex, sql string) (*Result, error) {
	tb, ok := s.db.table(st.Table)
	if !ok {
		return nil, fmt.Errorf("engine: table %q does not exist", st.Table)
	}
	s.eng.ckptMu.RLock()
	defer s.eng.ckptMu.RUnlock()
	if err := tb.DropIndex(st.Name); err != nil {
		return nil, err
	}
	s.db.pcache.InvalidateTable(st.Table)
	s.logDDL(tb.Schema.Name, sql)
	return &Result{Tag: "DROP INDEX"}, nil
}

// execInsert inserts st's rows: its computed Rows as evaluated, or its
// literal rows as they are, which in a shape are the arguments.
func (s *Session) execInsert(st *sqlmini.Insert, args []sqlmini.Value, sql string, out *resultBuf) (*Result, error) {
	tb, ok := s.db.table(st.Table)
	if !ok {
		return nil, fmt.Errorf("engine: table %q does not exist", st.Table)
	}
	schema := tb.Schema
	var colBuf [16]int
	colIdx := colBuf[:0]
	inOrder := len(st.Columns) == len(schema.Columns)
	for i, name := range st.Columns {
		ci := schema.ColumnIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("engine: table %q has no column %q", st.Table, name)
		}
		colIdx = append(colIdx, ci)
		inOrder = inOrder && ci == i
	}
	computed := st.Rows != nil
	n := len(st.Values) + len(st.Rows) + st.ArgRows
	w := len(st.Columns)

	// Value logging: redo never re-evaluates an expression. A literal
	// INSERT is its own redo; a computed one logs its rows as evaluated.
	var redo []byte
	if computed {
		redo = appendInsertHead(make([]byte, 0, len(sql)+64), schema)
	}
	// Insert encodes each row and keeps none of them, so a row in the
	// schema's column order is inserted as it is, a parsed or evaluated one
	// included, and any other is built in the session's write row.
	for i := 0; i < n; i++ {
		var vals []sqlmini.Value
		switch {
		case computed:
			var err error
			if s.row, err = evalRow(s.row[:0], st.Rows[i], args); err != nil {
				return nil, err
			}
			vals = s.row
		case st.ArgRows > 0:
			vals = args[i*w : (i+1)*w]
		default:
			vals = st.Values[i]
		}
		row := storage.Row(vals)
		if !inOrder {
			row = s.writeRow(len(schema.Columns))
			clear(row) // NULL where no value is named
			for j, v := range vals {
				row[colIdx[j]] = v
			}
		}
		if computed {
			if i > 0 {
				redo = append(redo, ", "...)
			}
			redo = appendTuple(redo, row)
		}
		if err := tb.Insert(s.txn, row); err != nil {
			return nil, err
		}
	}
	if n > 0 {
		data := sql
		if computed {
			data = string(redo)
		}
		s.eng.logAppend(wal.Record{TxnID: uint64(s.txn.ID), Kind: wal.RecInsert,
			DB: s.db.Name, Table: schema.Name, Data: data})
	}
	return out.counted(insertTag, n), nil
}

// evalRow appends to dst the values of a computed INSERT row, in the
// statement's column order.
func evalRow(dst []sqlmini.Value, exprs []sqlmini.Expr, args []sqlmini.Value) ([]sqlmini.Value, error) {
	for _, e := range exprs {
		v, err := evalExpr(e, args, nil, nil)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// writeRow returns the session's write row, w values wide.
func (s *Session) writeRow(w int) storage.Row {
	s.write = slices.Grow(s.write[:0], w)[:w]
	return s.write
}

func (s *Session) execUpdate(st *sqlmini.Update, args []sqlmini.Value, out *resultBuf) (*Result, error) {
	tb, ok := s.db.table(st.Table)
	if !ok {
		return nil, fmt.Errorf("engine: table %q does not exist", st.Table)
	}
	schema := tb.Schema
	for _, a := range st.Set {
		if schema.ColumnIndex(a.Column) < 0 {
			return nil, fmt.Errorf("engine: table %q has no column %q", st.Table, a.Column)
		}
	}
	matches, err := s.collectMatches(tb, st.Where, args)
	defer s.releaseMatches(matches)
	if err != nil {
		return nil, err
	}
	n := 0
	recs, redo := s.walBatch[:0], s.redo[:0]
	for _, old := range matches {
		newRow := s.writeRow(len(old))
		copy(newRow, old)
		for _, a := range st.Set {
			v, err := evalExpr(a.Value, args, schema, old)
			if err != nil {
				s.walBatch = recs[:0]
				return nil, err
			}
			newRow[schema.ColumnIndex(a.Column)] = v
		}
		start := len(redo)
		redo = appendUpdateRow(redo, schema, newRow)
		ok, err := tb.Update(s.txn, schema.PK(old), newRow)
		if err != nil {
			s.walBatch = recs[:0]
			return nil, err
		}
		if ok {
			// One record per row, carrying the row's final image keyed by
			// primary key: replaying the client's predicate could match
			// different rows at redo time; the literal image cannot. The
			// rows of one statement go to the log as a single batch.
			recs = append(recs, wal.Record{TxnID: uint64(s.txn.ID), Kind: wal.RecUpdate,
				DB: s.db.Name, Table: schema.Name, Data: lentString(redo[start:])})
			n++
		} else {
			redo = redo[:start]
		}
	}
	s.eng.logAppendBatch(recs)
	s.walBatch, s.redo = recs[:0], kept(redo)
	return out.counted(updateTag, n), nil
}

func (s *Session) execDelete(st *sqlmini.Delete, args []sqlmini.Value, out *resultBuf) (*Result, error) {
	tb, ok := s.db.table(st.Table)
	if !ok {
		return nil, fmt.Errorf("engine: table %q does not exist", st.Table)
	}
	matches, err := s.collectMatches(tb, st.Where, args)
	defer s.releaseMatches(matches)
	if err != nil {
		return nil, err
	}
	n := 0
	recs, redo := s.walBatch[:0], s.redo[:0]
	for _, old := range matches {
		ok, err := tb.Delete(s.txn, tb.Schema.PK(old))
		if err != nil {
			s.walBatch = recs[:0]
			return nil, err
		}
		if ok {
			start := len(redo)
			redo = appendDeleteRow(redo, tb.Schema, old)
			recs = append(recs, wal.Record{TxnID: uint64(s.txn.ID), Kind: wal.RecDelete,
				DB: s.db.Name, Table: tb.Schema.Name, Data: lentString(redo[start:])})
			n++
		}
	}
	s.eng.logAppendBatch(recs)
	s.walBatch, s.redo = recs[:0], kept(redo)
	return out.counted(deleteTag, n), nil
}

// lentString is b as a string that shares its bytes: a redo image the
// session lends the log for one append (wal.Record), appended to but never
// rewritten until the append is done.
func lentString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// The render helpers append the self-contained redo statements the WAL
// carries: literal values only, rows addressed by primary key. See the
// wal.Unit doc for why this (plus commit-order replay) is state-exact under
// snapshot isolation where raw client SQL would not be. DUMP renders a
// row statement from the same pieces (see insertSQL).

// appendInsertHead appends "INSERT INTO t (c1, c2, ...) VALUES ", naming
// every column of schema.
func appendInsertHead(dst []byte, schema *storage.Schema) []byte {
	dst = append(append(dst, "INSERT INTO "...), schema.Name...)
	for i, c := range schema.Columns {
		if i == 0 {
			dst = append(dst, " ("...)
		} else {
			dst = append(dst, ", "...)
		}
		dst = append(dst, c.Name...)
	}
	return append(dst, ") VALUES "...)
}

// appendTuple appends "(v1, v2, ...)".
func appendTuple(dst []byte, row storage.Row) []byte {
	dst = append(dst, '(')
	for i, v := range row {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = v.AppendSQL(dst)
	}
	return append(dst, ')')
}

func appendUpdateRow(dst []byte, schema *storage.Schema, row storage.Row) []byte {
	dst = append(append(dst, "UPDATE "...), schema.Name...)
	for i, c := range schema.Columns {
		if i == 0 {
			dst = append(dst, " SET "...)
		} else {
			dst = append(dst, ", "...)
		}
		dst = row[i].AppendSQL(append(append(dst, c.Name...), " = "...))
	}
	return appendWherePK(dst, schema, row)
}

func appendDeleteRow(dst []byte, schema *storage.Schema, row storage.Row) []byte {
	return appendWherePK(append(append(dst, "DELETE FROM "...), schema.Name...), schema, row)
}

func appendWherePK(dst []byte, schema *storage.Schema, row storage.Row) []byte {
	pk := schema.PKIndex()
	dst = append(append(append(dst, " WHERE "...), schema.Columns[pk].Name...), " = "...)
	return row[pk].AppendSQL(dst)
}

// eachMatch calls fn, in primary-key order, for every row visible to s.txn
// that satisfies where, bound to args, until fn returns false. It reads
// through the primary-key map when where pins the key with an equality,
// through a secondary index when one covers an equality conjunct
// (candidates are a superset, so the whole predicate re-runs on each), and
// by a full scan otherwise. fn gets the row's encoding, and r, the session's read row with
// the columns in need and those where reads decoded and the others NULL.
// fn borrows r until it returns; to keep the row it decodes rec (see
// retain), whose values stay valid (see mvcc.Rec). So a scan decodes, of
// every row, only what deciding on it takes.
func (s *Session) eachMatch(tb *mvcc.Table, where sqlmini.Expr, args []sqlmini.Value, need mvcc.Cols, fn func(r storage.Row, rec mvcc.Rec) bool) error {
	schema := tb.Schema
	w := len(schema.Columns)
	s.row = slices.Grow(s.row[:0], w)[:w]
	clear(s.row)
	need |= exprCols(schema, where)
	var err error
	visit := func(rec mvcc.Rec) bool {
		rec.Decode(s.row, need)
		if where != nil {
			var match bool
			if match, err = evalFilter(where, args, schema, s.row); err != nil || !match {
				return err == nil
			}
		}
		return fn(s.row, rec)
	}
	if pk, ok := pkEquality(schema, where, args); ok {
		if rec, ok := tb.GetRec(s.txn, pk); ok {
			visit(rec)
		}
		return err
	}
	if col, val, ok := indexableEquality(schema, where, args); ok {
		if pks, ok := tb.IndexLookup(col, val); ok {
			slices.SortFunc(pks, func(a, b sqlmini.Value) int {
				c, _ := a.Compare(b)
				return c
			})
			for _, pk := range pks {
				if rec, ok := tb.GetRec(s.txn, pk); ok && !visit(rec) {
					break
				}
			}
			return err
		}
	}
	tb.ScanRecs(s.txn, visit)
	return err
}

// collectMatches is eachMatch into the session's match buffer, for the
// statements that write the rows they match and so must not do it while the
// scan runs. The caller hands the rows back to releaseMatches.
func (s *Session) collectMatches(tb *mvcc.Table, where sqlmini.Expr, args []sqlmini.Value) ([]storage.Row, error) {
	rows := s.matches
	err := s.eachMatch(tb, where, args, 0, func(_ storage.Row, rec mvcc.Rec) bool {
		rows = s.retain(rows, rec, len(tb.Schema.Columns), mvcc.AllCols)
		return true
	})
	return rows, err
}

// retain appends to rows the row rec encodes, w values wide, with the
// columns in need decoded and the others NULL: into a slot a top-k cut
// freed, or a new one in the session's rowVals. Every kept row has a slot of
// its own, so sorting the match buffer moves only row headers.
func (s *Session) retain(rows []storage.Row, rec mvcc.Rec, w int, need mvcc.Cols) []storage.Row {
	var slot storage.Row
	if n := len(s.freed); n > 0 {
		slot = s.freed[n-1]
		s.freed = s.freed[:n-1]
		clear(slot)
	} else {
		i := len(s.rowVals)
		s.rowVals = slices.Grow(s.rowVals, w)[:i+w] // zero: releaseMatches clears what it used
		slot = s.rowVals[i : i+w : i+w]
	}
	rec.Decode(slot, need)
	return append(rows, slot)
}

// releaseMatches ends a statement's use of the match buffer and of the
// values its rows hold: it clears both, so neither keeps alive what the
// statement read, and keeps the arrays for the next statement.
func (s *Session) releaseMatches(rows []storage.Row) {
	clear(rows)
	clear(s.rowVals)
	s.matches, s.rowVals, s.freed = kept(rows), kept(s.rowVals), kept(s.freed)
}

// exprCols returns the columns of schema that e reads.
func exprCols(schema *storage.Schema, e sqlmini.Expr) mvcc.Cols {
	switch e := e.(type) {
	case nil, *sqlmini.Literal, *sqlmini.Param:
		return 0
	case *sqlmini.ColumnRef:
		return colBit(schema.ColumnIndex(e.Name))
	case *sqlmini.Binary:
		return exprCols(schema, e.L) | exprCols(schema, e.R)
	case *sqlmini.Not:
		return exprCols(schema, e.E)
	case *sqlmini.Neg:
		return exprCols(schema, e.E)
	}
	return mvcc.AllCols
}

// colBit returns the set holding column i; none for i < 0, which names no
// column, or for a column mvcc.Cols always holds.
func colBit(i int) mvcc.Cols {
	if i < 0 || i >= 64 {
		return 0
	}
	return 1 << i
}

// pkEquality detects a top-level `pk = constant` conjunct in where, enabling
// the point-lookup fast path that makes TPC-W style workloads cheap.
func pkEquality(schema *storage.Schema, where sqlmini.Expr, args []sqlmini.Value) (sqlmini.Value, bool) {
	b, ok := where.(*sqlmini.Binary)
	if !ok {
		return sqlmini.Value{}, false
	}
	switch b.Op {
	case sqlmini.OpAnd:
		if v, ok := pkEquality(schema, b.L, args); ok {
			return v, true
		}
		return pkEquality(schema, b.R, args)
	case sqlmini.OpEq:
		pkName := schema.Columns[schema.PKIndex()].Name
		if col, v, ok := columnEquality(b, args); ok && col == pkName {
			return coercePK(schema, v), true
		}
	}
	return sqlmini.Value{}, false
}

// indexableEquality finds a top-level `col = constant` conjunct over a
// non-PK column (PK equalities use the faster point lookup).
func indexableEquality(schema *storage.Schema, where sqlmini.Expr, args []sqlmini.Value) (string, sqlmini.Value, bool) {
	b, ok := where.(*sqlmini.Binary)
	if !ok {
		return "", sqlmini.Value{}, false
	}
	switch b.Op {
	case sqlmini.OpAnd:
		if c, v, ok := indexableEquality(schema, b.L, args); ok {
			return c, v, true
		}
		return indexableEquality(schema, b.R, args)
	case sqlmini.OpEq:
		if col, v, ok := columnEquality(b, args); ok {
			return col, coerceCol(schema, col, v), true
		}
	}
	return "", sqlmini.Value{}, false
}

// columnEquality reads the equality b as `column = constant`, either way
// round, with a Param bound to args.
func columnEquality(b *sqlmini.Binary, args []sqlmini.Value) (string, sqlmini.Value, bool) {
	col, ok := b.L.(*sqlmini.ColumnRef)
	c := b.R
	if !ok {
		col, ok = b.R.(*sqlmini.ColumnRef)
		c = b.L
	}
	if !ok {
		return "", sqlmini.Value{}, false
	}
	v, ok := constant(c, args)
	return col.Name, v, ok
}

// constant returns the value of e when it is a literal, or a Param bound to
// args.
func constant(e sqlmini.Expr, args []sqlmini.Value) (sqlmini.Value, bool) {
	switch e := e.(type) {
	case *sqlmini.Literal:
		return e.Val, true
	case *sqlmini.Param:
		return args[e.Index], true
	}
	return sqlmini.Value{}, false
}

func coerceCol(schema *storage.Schema, col string, v sqlmini.Value) sqlmini.Value {
	ci := schema.ColumnIndex(col)
	if ci >= 0 && schema.Columns[ci].Type == sqlmini.KindFloat && v.Kind == sqlmini.KindInt {
		return sqlmini.NewFloat(float64(v.Int))
	}
	return v
}

func coercePK(schema *storage.Schema, v sqlmini.Value) sqlmini.Value {
	if schema.Columns[schema.PKIndex()].Type == sqlmini.KindFloat && v.Kind == sqlmini.KindInt {
		return sqlmini.NewFloat(float64(v.Int))
	}
	return v
}

func (s *Session) execSelect(st *sqlmini.Select, args []sqlmini.Value, out *resultBuf) (*Result, error) {
	tb, ok := s.db.table(st.Table)
	if !ok {
		return nil, fmt.Errorf("engine: table %q does not exist", st.Table)
	}
	schema := tb.Schema
	if len(st.Items) == 1 && st.Items[0].Aggregate != "" {
		return s.aggregate(tb, st, args, out)
	}
	proj := s.proj[:0]
	for _, it := range st.Items {
		switch {
		case it.Aggregate != "":
			return nil, fmt.Errorf("engine: aggregates cannot be mixed with columns")
		case it.Star:
			for i := range schema.Columns {
				proj = append(proj, i)
			}
		default:
			ci := schema.ColumnIndex(it.Column)
			if ci < 0 {
				return nil, fmt.Errorf("engine: table %q has no column %q", st.Table, it.Column)
			}
			proj = append(proj, ci)
		}
	}
	s.proj = kept(proj)
	// A match is decided on its ORDER BY column (and where's), and only a
	// row kept for the result has its projection decoded too.
	var decide, keepCols mvcc.Cols
	for _, ci := range proj {
		keepCols |= colBit(ci)
	}
	var cmp func(a, b storage.Row) int
	if st.OrderBy != "" {
		ci := schema.ColumnIndex(st.OrderBy)
		if ci < 0 {
			return nil, fmt.Errorf("engine: table %q has no column %q", st.Table, st.OrderBy)
		}
		decide = colBit(ci)
		keepCols |= decide
		cmp = func(a, b storage.Row) int {
			c, err := a[ci].Compare(b[ci])
			if err != nil {
				return 0
			}
			if st.OrderDesc {
				return -c
			}
			return c
		}
	}

	// rows, the session's match buffer, holds copies of the rows the result
	// is made of (see retain). Without ORDER BY they are the first matches
	// in primary-key order and LIMIT stops the scan. With ORDER BY and LIMIT
	// k, rows is a candidate buffer: whenever it holds more than 2k rows it
	// is stably sorted and cut to the best k, and a match that does not beat
	// the k-th is skipped — an equal row arrived later, so it never
	// displaces an earlier one. Either way the result is that of a stable
	// sort of every match followed by LIMIT; only ORDER BY without LIMIT
	// holds every match. A cut frees the slots of the rows it drops for the
	// matches after it.
	k := int64(-1)
	if st.Limit != nil {
		lim, _ := constant(st.Limit, args)
		k = lim.Int
	}
	rows := s.matches
	var kth storage.Row
	keep := func() {
		if cmp != nil {
			slices.SortStableFunc(rows, cmp)
		}
		if k >= 0 && int64(len(rows)) > k {
			s.freed = append(s.freed, rows[k:]...)
			clear(rows[k:])
			rows = rows[:k]
		}
	}
	w := len(schema.Columns)
	err := s.eachMatch(tb, st.Where, args, decide, func(r storage.Row, rec mvcc.Rec) bool {
		if cmp == nil {
			rows = s.retain(rows, rec, w, keepCols)
			return k < 0 || int64(len(rows)) < k
		}
		if kth != nil && cmp(r, kth) >= 0 {
			return true
		}
		rows = s.retain(rows, rec, w, keepCols)
		if k >= 0 && int64(len(rows))-k > k {
			keep()
			if k == 0 {
				return false
			}
			kth = rows[k-1]
		}
		return true
	})
	if err != nil {
		s.releaseMatches(rows)
		return nil, err
	}
	keep()

	res := out.result(selectTag.tag(len(rows)))
	out.table(res, len(proj), len(rows))
	for j, ci := range proj {
		res.Columns[j] = schema.Columns[ci].Name
	}
	for i, r := range rows {
		for j, ci := range proj {
			res.Rows[i][j] = r[ci]
		}
	}
	s.releaseMatches(rows)
	return res, nil
}

// aggregate folds a single COUNT or SUM over the matches as they stream by;
// ORDER BY and LIMIT do not apply to its one-row result.
func (s *Session) aggregate(tb *mvcc.Table, st *sqlmini.Select, args []sqlmini.Value, out *resultBuf) (*Result, error) {
	item := st.Items[0]
	col, ci := "count", -1
	switch item.Aggregate {
	case "COUNT":
	case "SUM":
		if col, ci = "sum", tb.Schema.ColumnIndex(item.AggArg); ci < 0 {
			return nil, fmt.Errorf("engine: no column %q for SUM", item.AggArg)
		}
	default:
		return nil, fmt.Errorf("engine: unsupported aggregate %q", item.Aggregate)
	}
	floatCol := ci >= 0 && tb.Schema.Columns[ci].Type == sqlmini.KindFloat
	var n, sumI int64
	var sumF float64
	err := s.eachMatch(tb, st.Where, args, colBit(ci), func(r storage.Row, _ mvcc.Rec) bool {
		n++
		// A column holds one kind, and a NULL reads as zero either way,
		// so the sum skips NULLs.
		switch {
		case floatCol:
			sumF += r[ci].Float()
		case ci >= 0:
			sumI += r[ci].Int
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	val := sqlmini.NewInt(n)
	switch {
	case floatCol:
		val = sqlmini.NewFloat(sumF)
	case ci >= 0:
		val = sqlmini.NewInt(sumI)
	}
	res := out.result(selectTag.tag(1))
	out.table(res, 1, 1)
	res.Columns[0], res.Rows[0][0] = col, val
	return res, nil
}
