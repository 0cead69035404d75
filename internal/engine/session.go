package engine

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unsafe"

	"madeus/internal/mvcc"
	"madeus/internal/sqlmini"
	"madeus/internal/storage"
	"madeus/internal/wal"
)

// Result is the outcome of one statement.
type Result struct {
	// Columns and Rows are set for SELECT (and DUMP, whose single
	// column carries the dump script).
	Columns []string
	Rows    [][]sqlmini.Value
	// Affected is the row count for INSERT/UPDATE/DELETE.
	Affected int
	// Tag is the command tag, e.g. "SELECT 3", "BEGIN", "COMMIT".
	Tag string
}

// maxKeptScratch bounds each array a session keeps between statements, the
// rule a wire connection's read buffer follows: a larger one serves its
// statement and is dropped, so a session that once answered a 20,000-row
// SELECT does not pin it.
const maxKeptScratch = 64 << 10

// resultBuf is where a statement's result is built. A session's own, reused
// call after call, builds the lent results of ExecLent; a nil *resultBuf
// builds an owned result from fresh allocations. The executor is the same
// either way: only where the arrays come from differs.
type resultBuf struct {
	res   Result
	cols  []string
	heads [][]sqlmini.Value
	vals  []sqlmini.Value
}

// result returns an empty result tagged tag.
func (b *resultBuf) result(tag string) *Result {
	if b == nil {
		return &Result{Tag: tag}
	}
	b.res = Result{Tag: tag}
	return &b.res
}

// counted returns an empty result for a statement that wrote n rows.
func (b *resultBuf) counted(t countTag, n int) *Result {
	res := b.result(t.tag(n))
	res.Affected = n
	return res
}

// table gives res w columns and n rows of w values each, for the caller to
// fill in. One flat array backs every value: each row is a full slice
// expression over it, so an append to one row cannot overwrite the next.
func (b *resultBuf) table(res *Result, w, n int) {
	var vals []sqlmini.Value
	if b == nil {
		res.Columns = make([]string, w)
		res.Rows = make([][]sqlmini.Value, n)
		vals = make([]sqlmini.Value, n*w)
	} else {
		res.Columns = reuse(&b.cols, w)
		res.Rows = reuse(&b.heads, n)
		vals = reuse(&b.vals, n*w)
	}
	for i := range res.Rows {
		res.Rows[i] = vals[i*w : (i+1)*w : (i+1)*w]
	}
}

// reuse returns *buf resized to n, grown as append grows, and leaves in *buf
// what the session keeps of it.
func reuse[T any](buf *[]T, n int) []T {
	s := slices.Grow((*buf)[:0], n)[:n]
	*buf = kept(s)
	return s
}

// kept is what a session keeps of buf for its next statement: the empty
// array while it is at most maxKeptScratch bytes, nothing once larger.
func kept[T any](buf []T) []T {
	var zero T
	if uintptr(cap(buf))*unsafe.Sizeof(zero) > maxKeptScratch {
		return nil
	}
	return buf[:0]
}

// countTag builds the command tag "<verb> <n>". The tags of small counts,
// which nearly every statement reports, are built once and shared: strings
// are immutable, so owned and lent results alike may hold them.
type countTag struct {
	prefix string   // "SELECT "
	small  []string // small[n] is prefix + n
}

func newCountTag(verb string) countTag {
	t := countTag{prefix: verb + " ", small: make([]string, 256)}
	for n := range t.small {
		t.small[n] = t.prefix + strconv.Itoa(n)
	}
	return t
}

func (t countTag) tag(n int) string {
	if n < len(t.small) {
		return t.small[n]
	}
	return t.prefix + strconv.Itoa(n)
}

var (
	selectTag = newCountTag("SELECT")
	insertTag = newCountTag("INSERT")
	updateTag = newCountTag("UPDATE")
	deleteTag = newCountTag("DELETE")
)

// ErrTxnAborted is returned for statements issued inside a transaction that
// already failed; the client must ROLLBACK (or COMMIT, which rolls back).
var ErrTxnAborted = errors.New("engine: current transaction is aborted, commands ignored until end of transaction block")

// Session is one client connection's execution context. A session is used
// by one goroutine at a time.
type Session struct {
	eng *Engine
	db  *Database

	txn     *mvcc.Txn // &ownTxn from the first statement after BEGIN, else nil
	inTxn   bool      // explicit BEGIN seen
	txnFail bool      // a statement inside the txn errored
	ddl     bool      // a DDL record was logged in the current txn scope

	// ownTxn is every transaction of the session's, begun afresh at each
	// first statement (ensureTxn), so a transaction allocates no Txn.
	ownTxn mvcc.Txn

	// walBatch is the per-statement record accumulator, reused across
	// statements (sessions are single-goroutine) so multi-row UPDATEs and
	// DELETEs append to the log in one batch without reallocating; redo
	// holds the images of its records' Data, which the log borrows only
	// for the append (wal.Record).
	walBatch []wal.Record
	redo     []byte

	// The buffers a statement is answered from, kept between statements
	// while each is at most maxKeptScratch: the match buffer and the
	// projection every SELECT uses (UPDATE and DELETE collect their matches
	// in the former too), and the arrays ExecLent builds its results in.
	// The match buffer holds copies of the rows it keeps: their values are
	// in rowVals, and freed lists the slots a top-k cut gave back.
	matches []storage.Row
	rowVals []sqlmini.Value
	freed   []storage.Row
	proj    []int
	lent    resultBuf

	// The rows a statement's reads decode into and its writes are built
	// in: row for every row a scan or lookup yields and for an INSERT's
	// evaluated row, and write for an UPDATE's new row or an INSERT's in
	// schema column order.
	row   storage.Row
	write storage.Row

	// The statement's shape and its arguments, which sqlmini.Shape lexes
	// it into: the parse cache's key, and the values its Params are bound
	// to. A literal INSERT's rows are its arguments, so a dump batch is
	// decoded into args once.
	key  []byte
	args []sqlmini.Value
}

// NewSession opens a session on the named tenant database.
func (e *Engine) NewSession(dbname string) (*Session, error) {
	db, ok := e.Database(dbname)
	if !ok {
		return nil, fmt.Errorf("engine: database %q does not exist", dbname)
	}
	return &Session{eng: e, db: db}, nil
}

// DatabaseName reports the tenant this session is bound to.
func (s *Session) DatabaseName() string { return s.db.Name }

// InTxn reports whether an explicit transaction block is open.
func (s *Session) InTxn() bool { return s.inTxn }

// Close aborts any open transaction.
func (s *Session) Close() {
	if s.txn != nil && !s.txn.Done() {
		s.txn.Abort()
		s.logAbort(s.txn)
		s.db.noteAbort(false)
	}
	s.txn = nil
	s.inTxn = false
}

// Exec parses and executes one statement, and returns a result the caller
// owns. Madeus-relevant semantics:
//
//   - The transaction's MVCC snapshot is taken at the first statement after
//     BEGIN, not at BEGIN itself (Sec 3.1's snapshot creation rule).
//   - COMMIT of an update transaction waits for a WAL fsync (group
//     committed); read-only commits don't touch the WAL.
//   - A failed statement poisons the transaction block; COMMIT then acts as
//     ROLLBACK, as in PostgreSQL.
func (s *Session) Exec(sql string) (*Result, error) { return s.exec(sql, nil) }

// ExecLent is Exec answering from the session's own buffers: the result it
// returns — the struct, its columns, rows and values — is lent, valid only
// until the session's next call, and must not be modified. A caller that
// encodes the result at once, as a node's wire server does, allocates
// nothing for it.
func (s *Session) ExecLent(sql string) (*Result, error) { return s.exec(sql, &s.lent) }

// exec is Exec and ExecLent: out is where the result is built, nil for an
// owned one.
func (s *Session) exec(sql string, out *resultBuf) (*Result, error) {
	var st sqlmini.Statement // nil for a row statement, which is not parsed
	if !IsRowStatement(sql) {
		if meta, handled, err := s.execMeta(sql); handled {
			return meta, err
		}
		var err error
		if st, err = s.parse(sql); err != nil {
			s.poison(false)
			return nil, err
		}
	}
	return s.run(st, s.args, sql, out)
}

// parse returns the statement sql is: its shape's, from the tenant's parse
// cache, with its arguments in s.args. The statement and the arguments are
// good until the session's next statement.
func (s *Session) parse(sql string) (sqlmini.Statement, error) {
	var err error
	s.key, s.args, err = sqlmini.Shape(kept(s.key), kept(s.args), sql)
	var st sqlmini.Statement
	if err == nil {
		st, err = s.db.pcache.Get(unsafe.String(unsafe.SliceData(s.key), len(s.key)))
	}
	if err != nil {
		// A shape fails exactly where the text does. Parse words the error
		// against the text the client sent.
		if _, perr := sqlmini.Parse(sql); perr != nil {
			err = perr
		}
		return nil, err
	}
	return st, nil
}

// run executes st, bound to args (sqlmini.ParseShape), or the row statement
// sql when st is nil.
func (s *Session) run(st sqlmini.Statement, args []sqlmini.Value, sql string, out *resultBuf) (*Result, error) {
	switch st.(type) {
	case *sqlmini.Begin:
		return s.execBegin(out)
	case *sqlmini.Commit:
		return s.execCommit(out)
	case *sqlmini.Rollback:
		return s.execRollback(out)
	}
	if s.inTxn && s.txnFail {
		return nil, ErrTxnAborted
	}

	if s.inTxn {
		s.ensureTxn()
		res, err := s.execStatement(st, args, sql, out)
		if err != nil {
			s.poison(errors.Is(err, mvcc.ErrSerialization))
		}
		return res, err
	}

	// Autocommit: the statement runs in its own transaction.
	s.ensureTxn()
	res, err := s.execStatement(st, args, sql, out)
	if err != nil {
		txn := s.txn
		s.txn = nil
		txn.Abort()
		s.logAbort(txn)
		s.db.noteAbort(errors.Is(err, mvcc.ErrSerialization))
		return nil, err
	}
	if _, err := s.commitTxn(); err != nil {
		return nil, err
	}
	return res, nil
}

// ensureTxn lazily begins the MVCC transaction (snapshot at first
// operation).
func (s *Session) ensureTxn() {
	if s.txn == nil || s.txn.Done() {
		s.db.mgr.BeginIn(&s.ownTxn)
		s.txn = &s.ownTxn
	}
}

// poison marks an explicit transaction failed and rolls back its effects.
// conflict tags the abort as a serialization failure in the tenant's
// outcome counters.
func (s *Session) poison(conflict bool) {
	if !s.inTxn {
		return
	}
	s.txnFail = true
	if s.txn != nil && !s.txn.Done() {
		s.txn.Abort()
		s.logAbort(s.txn)
		s.db.noteAbort(conflict)
	}
}

func (s *Session) execBegin(out *resultBuf) (*Result, error) {
	if s.inTxn {
		return nil, fmt.Errorf("engine: BEGIN inside a transaction block")
	}
	s.inTxn = true
	s.txnFail = false
	s.txn = nil // snapshot taken lazily at first operation
	return out.result("BEGIN"), nil
}

func (s *Session) execCommit(out *resultBuf) (*Result, error) {
	if !s.inTxn {
		return nil, fmt.Errorf("engine: COMMIT outside a transaction block")
	}
	defer func() { s.inTxn = false; s.txn = nil; s.txnFail = false }()
	if s.txnFail {
		// PostgreSQL: COMMIT of a failed transaction rolls back.
		return out.result("ROLLBACK"), nil
	}
	if s.txn == nil {
		// Empty transaction block.
		return out.result("COMMIT"), nil
	}
	if _, err := s.commitTxn(); err != nil {
		return nil, err
	}
	return out.result("COMMIT"), nil
}

// commitTxn commits s.txn: update transactions pay a WAL fsync first
// (group-committable), then become visible. A transaction scope that logged
// DDL pays the fsync even when its MVCC transaction is read-only — the DDL
// records must be durable before the client is told the statement stuck.
//
// The whole commit point — commit record, fsync, MVCC commit — runs under
// ckptMu's read side, so a checkpoint's exclusive section can never observe
// a commit that is durable but not yet visible (or vice versa); that
// equivalence is what makes "replay units past the checkpoint LSN" exact.
func (s *Session) commitTxn() (mvcc.CSN, error) {
	txn := s.txn
	s.txn = nil
	ddl := s.ddl
	s.ddl = false
	if txn == nil || txn.Done() {
		return 0, nil
	}
	if !txn.IsUpdate() && !ddl {
		// Read-only: no WAL interaction, no checkpoint ordering needed.
		csn, err := txn.Commit()
		if err != nil {
			s.db.noteAbort(false)
			return csn, err
		}
		s.db.noteCommit()
		return csn, nil
	}
	s.eng.ckptMu.RLock()
	if txn.IsUpdate() {
		s.eng.logAppend(wal.Record{TxnID: uint64(txn.ID), Kind: wal.RecCommit, DB: s.db.Name})
	}
	if err := s.eng.logCommit(); err != nil {
		s.eng.ckptMu.RUnlock()
		txn.Abort()
		s.logAbort(txn)
		s.db.noteAbort(false)
		return 0, err
	}
	csn, err := txn.Commit()
	s.eng.ckptMu.RUnlock()
	if err != nil {
		s.db.noteAbort(false)
		return csn, err
	}
	s.db.noteCommit()
	return csn, nil
}

// logAbort records an abort for an update transaction so the log's
// open-transaction accounting can retire segments promptly. Aborts are never
// fsynced: losing one is harmless, because replay drops any transaction
// without a durable commit record.
func (s *Session) logAbort(txn *mvcc.Txn) {
	if txn != nil && txn.IsUpdate() {
		s.eng.logAppend(wal.Record{TxnID: uint64(txn.ID), Kind: wal.RecAbort, DB: s.db.Name})
	}
	s.ddl = false
}

func (s *Session) execRollback(out *resultBuf) (*Result, error) {
	if !s.inTxn {
		return nil, fmt.Errorf("engine: ROLLBACK outside a transaction block")
	}
	if s.txn != nil && !s.txn.Done() {
		s.txn.Abort()
		s.logAbort(s.txn)
		s.db.noteAbort(false)
	}
	s.inTxn = false
	s.txn = nil
	s.txnFail = false
	return out.result("ROLLBACK"), nil
}

// firstField returns strings.Fields(sql)[0], or "", without splitting the
// rest of sql.
func firstField(sql string) string {
	sql = strings.TrimLeftFunc(sql, unicode.IsSpace)
	if i := strings.IndexFunc(sql, unicode.IsSpace); i >= 0 {
		return sql[:i]
	}
	return sql
}

// execMeta handles the utility commands that are not part of the sqlmini
// grammar: CREATE/DROP DATABASE, CHECKPOINT, VACUUM, SNAPSHOT and DUMP.
// Every other statement is turned away on its first word, unsplit.
func (s *Session) execMeta(sql string) (*Result, bool, error) {
	head := strings.ToUpper(firstField(sql))
	switch head {
	case "CREATE", "DROP", "CHECKPOINT", "VACUUM", "SNAPSHOT", "DUMP":
	default:
		return nil, false, nil
	}
	fields := strings.Fields(sql)
	var second string
	if len(fields) > 1 {
		second = strings.ToUpper(strings.TrimSuffix(fields[1], ";"))
	}
	switch {
	case head == "CREATE" && second == "DATABASE":
		if len(fields) != 3 {
			return nil, true, fmt.Errorf("engine: usage: CREATE DATABASE name")
		}
		// The catalog and the log keep the name: a copy, not a slice of sql.
		name := strings.Clone(strings.TrimSuffix(fields[2], ";"))
		if err := s.eng.CreateDatabase(name); err != nil {
			return nil, true, err
		}
		return &Result{Tag: "CREATE DATABASE"}, true, nil
	case head == "DROP" && second == "DATABASE":
		if len(fields) != 3 {
			return nil, true, fmt.Errorf("engine: usage: DROP DATABASE name")
		}
		name := strings.Clone(strings.TrimSuffix(fields[2], ";"))
		if err := s.eng.DropDatabase(name); err != nil {
			return nil, true, err
		}
		return &Result{Tag: "DROP DATABASE"}, true, nil
	case head == "CHECKPOINT" && len(fields) == 1:
		lsn, err := s.eng.Checkpoint()
		if err != nil {
			return nil, true, err
		}
		return &Result{Tag: fmt.Sprintf("CHECKPOINT %d", lsn)}, true, nil
	case head == "VACUUM" && len(fields) == 1:
		removed := s.db.mgr.PruneStates()
		horizon := s.db.mgr.Horizon()
		for _, name := range s.db.Tables() {
			if tb, ok := s.db.table(name); ok {
				removed += tb.Vacuum(horizon)
			}
		}
		return &Result{Tag: fmt.Sprintf("VACUUM %d", removed)}, true, nil
	case head == "SNAPSHOT" && len(fields) == 1:
		// Pin the transaction's MVCC snapshot now. Used by the Madeus
		// manager inside its critical region (Algorithm 3, Step 1):
		// the dump transaction's snapshot must correspond exactly to
		// the recorded MTS.
		if !s.inTxn {
			return nil, true, fmt.Errorf("engine: SNAPSHOT outside a transaction block")
		}
		if s.txnFail {
			return nil, true, ErrTxnAborted
		}
		s.ensureTxn()
		return &Result{Tag: "SNAPSHOT"}, true, nil
	case head == "DUMP" && (len(fields) == 1 || second == "STREAM"):
		// A plain Exec is a non-streaming transport (e.g. relayed through
		// a middleware worker): chunking is a transport concern, so DUMP
		// STREAM answers with the whole stream — row statements — as one
		// result. DUMP answers the same script as SQL text.
		if second == "STREAM" {
			if _, err := parseDumpChunk(fields); err != nil {
				return nil, true, err
			}
		}
		script, err := s.dump(second != "STREAM")
		if err != nil {
			return nil, true, err
		}
		res := &Result{Columns: []string{"statement"}, Tag: fmt.Sprintf("DUMP %d", len(script))}
		for _, line := range script {
			res.Rows = append(res.Rows, []sqlmini.Value{sqlmini.NewText(line)})
		}
		return res, true, nil
	}
	return nil, false, nil
}

// parseDumpChunk extracts the chunk size from a DUMP STREAM command
// ("DUMP STREAM" or "DUMP STREAM <sections>").
func parseDumpChunk(fields []string) (int, error) {
	usage := fmt.Errorf("engine: usage: DUMP STREAM [sections-per-chunk]")
	switch len(fields) {
	case 2:
		return DefaultDumpChunk, nil
	case 3:
		n, err := strconv.Atoi(strings.TrimSuffix(fields[2], ";"))
		if err != nil || n <= 0 {
			return 0, usage
		}
		return n, nil
	}
	return 0, usage
}

// ExecStream executes sql, delivering bulk payload through emit in bounded
// chunks before the final Result. handled reports whether sql has a
// streaming form — only DUMP STREAM does; for everything else the caller
// (the wire server) falls back to plain Exec. Chunks are DumpStream's, but
// lent: emit borrows each, its slice and its strings, only until it
// returns, and a row chunk's statement is the buffer the scan builds every
// chunk in, so the wire server writes it to its frame with no copy of its
// own. An emit error aborts the dump and is returned verbatim.
func (s *Session) ExecStream(sql string, emit func(stmts []string) error) (*Result, bool, error) {
	if !strings.EqualFold(firstField(sql), "DUMP") {
		return nil, false, nil
	}
	fields := strings.Fields(sql)
	if len(fields) < 2 ||
		strings.ToUpper(strings.TrimSuffix(fields[1], ";")) != "STREAM" {
		return nil, false, nil
	}
	chunk, err := parseDumpChunk(fields)
	if err != nil {
		return nil, true, err
	}
	total, err := s.dumpStream(chunk, false, emit)
	if err != nil {
		return nil, true, err
	}
	return &Result{Tag: fmt.Sprintf("DUMP STREAM %d", total)}, true, nil
}
