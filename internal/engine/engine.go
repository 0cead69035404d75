// Package engine implements the shared-process DBMS instance Madeus manages:
// one engine per node, hosting many tenant databases that share a single
// write-ahead log (the shared process model of Curino et al. that the paper
// adopts, Sec 1). The engine provides snapshot isolation with the
// first-updater-wins rule via the mvcc package and group commit via the wal
// package, executes the sqlmini SQL subset, and supports consistent DUMPs
// for live migration.
//
// Performance model: each statement consumes one of a bounded number of
// execution slots (simulating CPU cores) for a configurable CPU cost, and
// each update-transaction commit waits for a WAL fsync. These two knobs are
// what make workloads saturate the way the paper's PostgreSQL node does.
package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"madeus/internal/mvcc"
	"madeus/internal/obs"
	"madeus/internal/simlat"
	"madeus/internal/sqlmini"
	"madeus/internal/wal"
)

// Process-wide transaction outcome counters (summed over every tenant of
// every engine in the process); the per-tenant split lives on Database.
var (
	obsCommits   = obs.NewCounter("engine.commits", "transactions committed")
	obsAborts    = obs.NewCounter("engine.aborts", "transactions aborted or rolled back")
	obsConflicts = obs.NewCounter("engine.conflicts", "first-updater-wins serialization aborts")
)

// Options configures an Engine.
type Options struct {
	// WAL configures the shared write-ahead log.
	WAL wal.Options
	// ExecSlots bounds concurrently executing statements (simulated CPU
	// cores). 0 means unlimited.
	ExecSlots int
	// StmtCost is the simulated CPU time consumed by each statement
	// while holding an execution slot.
	StmtCost time.Duration
	// LockTimeout bounds row-lock waits (see mvcc.Manager).
	LockTimeout time.Duration
	// DumpBatch is the number of rows per section of a dump's row
	// statements, each of Dump's own (and per INSERT of the DUMP command's
	// text); it controls how much slower a restore is than a dump.
	// Defaults to 50.
	DumpBatch int
	// DataDir, when non-empty, makes the engine durable: the WAL lives
	// in DataDir as on-disk segment files, checkpoints are written under
	// DataDir, and Open recovers the committed prefix on boot. Empty
	// keeps the engine in-memory (the pre-durability behaviour).
	DataDir string
	// CheckpointEvery runs a background checkpoint at this interval when
	// DataDir is set. Zero disables automatic checkpoints (explicit
	// Checkpoint calls and the CHECKPOINT command still work).
	CheckpointEvery time.Duration
}

// parseCacheEntries is the per-tenant parse cache capacity.
const parseCacheEntries = 4096

// Engine is one DBMS instance ("node" in the paper's cluster).
type Engine struct {
	opts  Options
	log   *wal.Log
	slots chan struct{}

	mu  sync.RWMutex //madeusvet:lockrank engine 30
	dbs map[string]*Database

	// ckptMu orders commits and DDL against checkpoints: every commit
	// point (WAL commit record + fsync + MVCC commit) and every DDL
	// application holds the read side, and Checkpoint holds the write
	// side while it pins the checkpoint LSN and its per-tenant snapshots.
	// That makes "commit record durable at LSN <= ckptLSN" equivalent to
	// "visible in the checkpoint snapshot", which is what lets recovery
	// replay exactly the units beyond the checkpoint. Ranked below the
	// session layer: holding it across the commit fsync is the design.
	//madeusvet:lockrank checkpoint 28
	ckptMu sync.RWMutex

	recovering atomic.Bool   // replaying: suppress WAL appends and fsyncs
	appliedLSN atomic.Uint64 // highest redo unit LSN applied (idempotent redo)
	ckptLSN    atomic.Uint64 // LSN of the last completed checkpoint

	lastRecovery RecoveryStats // set once by Open before serving traffic

	// dumpBuf is the row-statement buffer of the last dump to finish. A
	// dump takes it, so two at once never share one: the second grows its
	// own, and whichever finishes last is kept (see dumpStream).
	dumpBuf atomic.Pointer[dumpBuf]

	ckptStop chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Database is one tenant: a named catalog of MVCC tables with its own
// transaction manager (transactions never span tenants).
type Database struct {
	Name string

	mgr *mvcc.Manager

	// pcache caches parsed statements by shape (sqlmini.Shape); shared by
	// every session of this tenant. Execution binds each statement's
	// arguments and treats cached ASTs as immutable.
	pcache *sqlmini.Cache

	mu     sync.RWMutex //madeusvet:lockrank database 32
	tables map[string]*mvcc.Table

	// Per-tenant transaction outcomes (monitoring; see DBStats).
	commits   atomic.Uint64
	aborts    atomic.Uint64
	conflicts atomic.Uint64
}

// DBStats is one tenant's transaction-outcome counters.
type DBStats struct {
	Commits   uint64
	Aborts    uint64
	Conflicts uint64 // first-updater-wins serialization aborts (subset of Aborts)
}

// Stats snapshots the tenant's transaction outcome counters.
func (db *Database) Stats() DBStats {
	return DBStats{
		Commits:   db.commits.Load(),
		Aborts:    db.aborts.Load(),
		Conflicts: db.conflicts.Load(),
	}
}

// ParseCacheStats snapshots the tenant's parse-cache counters.
func (db *Database) ParseCacheStats() sqlmini.CacheStats {
	return db.pcache.Stats()
}

// noteCommit records a committed transaction.
func (db *Database) noteCommit() {
	db.commits.Add(1)
	obsCommits.Inc()
}

// noteAbort records an aborted transaction; conflict marks the
// serialization-failure subset.
func (db *Database) noteAbort(conflict bool) {
	db.aborts.Add(1)
	obsAborts.Inc()
	if conflict {
		db.conflicts.Add(1)
		obsConflicts.Inc()
	}
}

// New creates an engine with its WAL committer running. It panics on a
// durability setup failure; engines with a DataDir should use Open.
func New(opts Options) *Engine {
	e, err := Open(opts)
	if err != nil {
		panic(fmt.Sprintf("engine: %v", err))
	}
	return e
}

// Open creates an engine. With DataDir set it opens the on-disk WAL,
// loads the latest checkpoint, replays the committed WAL suffix so the
// MVCC-visible state is exactly the committed prefix at the crash, and
// starts the background checkpointer (if configured).
func Open(opts Options) (*Engine, error) {
	if opts.DumpBatch <= 0 {
		opts.DumpBatch = 50
	}
	if opts.DataDir != "" {
		opts.WAL.Dir = opts.DataDir
	}
	log, err := wal.Open(opts.WAL)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		opts:     opts,
		log:      log,
		dbs:      make(map[string]*Database),
		ckptStop: make(chan struct{}),
	}
	if opts.ExecSlots > 0 {
		e.slots = make(chan struct{}, opts.ExecSlots)
	}
	if opts.DataDir != "" {
		if err := e.recover(); err != nil {
			e.log.Close()
			return nil, err
		}
		if opts.CheckpointEvery > 0 {
			e.wg.Add(1)
			go e.checkpointLoop()
		}
	}
	return e, nil
}

// stopBackground stops the checkpointer (idempotent).
func (e *Engine) stopBackground() {
	e.stopOnce.Do(func() {
		close(e.ckptStop)
		e.wg.Wait()
	})
}

// Close stops the background checkpointer and the WAL committer, flushing
// the WAL tail — a graceful shutdown loses nothing.
func (e *Engine) Close() {
	e.stopBackground()
	e.log.Close()
}

// Crash simulates kill -9: background work stops and the WAL drops its
// unsynced tail instead of flushing it, losing everything since the last
// fsync. A subsequent Open on the same DataDir exercises real recovery.
func (e *Engine) Crash() {
	e.stopBackground()
	e.log.Crash()
}

// logAppend appends a WAL record unless the engine is replaying: recovery
// re-executes logged statements through the normal execution path, and
// re-logging them would double the log on every restart.
func (e *Engine) logAppend(rec wal.Record) {
	if e.recovering.Load() {
		return
	}
	e.log.Append(rec)
}

// logAppendBatch appends a statement's records in one WAL lock round-trip
// (same replay-suppression rule as logAppend).
func (e *Engine) logAppendBatch(recs []wal.Record) {
	if e.recovering.Load() || len(recs) == 0 {
		return
	}
	e.log.AppendBatch(recs)
}

// logCommit waits for a commit fsync unless the engine is replaying
// (replayed units are durable already — they came from the log).
func (e *Engine) logCommit() error {
	if e.recovering.Load() {
		return nil
	}
	return e.log.Commit()
}

// WALStats exposes the shared log's counters.
func (e *Engine) WALStats() wal.Stats { return e.log.Stats() }

// CreateDatabase adds an empty tenant database. The catalog change is
// logged as a DDL record and made durable before returning, so a restarted
// node still knows its tenants.
func (e *Engine) CreateDatabase(name string) error {
	if name == "" {
		return fmt.Errorf("engine: empty database name")
	}
	e.ckptMu.RLock()
	err := func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if _, ok := e.dbs[name]; ok {
			return fmt.Errorf("engine: database %q already exists", name)
		}
		mgr := mvcc.NewManager()
		mgr.LockTimeout = e.opts.LockTimeout
		e.dbs[name] = &Database{
			Name:   name,
			mgr:    mgr,
			pcache: sqlmini.NewCache(parseCacheEntries),
			tables: make(map[string]*mvcc.Table),
		}
		return nil
	}()
	if err == nil {
		e.logAppend(wal.Record{Kind: wal.RecDDL, DB: name, Data: "CREATE DATABASE " + name})
	}
	e.ckptMu.RUnlock()
	if err != nil {
		return err
	}
	return e.logCommit()
}

// DropDatabase removes a tenant database and all its data (logged and
// durable, like CreateDatabase).
func (e *Engine) DropDatabase(name string) error {
	e.ckptMu.RLock()
	err := func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if _, ok := e.dbs[name]; !ok {
			return fmt.Errorf("engine: database %q does not exist", name)
		}
		delete(e.dbs, name)
		return nil
	}()
	if err == nil {
		e.logAppend(wal.Record{Kind: wal.RecDDL, DB: name, Data: "DROP DATABASE " + name})
	}
	e.ckptMu.RUnlock()
	if err != nil {
		return err
	}
	return e.logCommit()
}

// Database returns the named tenant.
func (e *Engine) Database(name string) (*Database, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	db, ok := e.dbs[name]
	return db, ok
}

// Databases lists tenant names in sorted order.
func (e *Engine) Databases() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.dbs))
	for n := range e.dbs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// acquireSlot blocks until an execution slot is free, then simulates the
// statement's CPU cost. The returned func releases the slot. Recovery
// bypasses the cost model: replay is not customer work and should finish at
// disk speed, not at the simulated CPU's.
func (e *Engine) acquireSlot() func() {
	if e.recovering.Load() {
		return func() {}
	}
	if e.slots != nil {
		e.slots <- struct{}{}
	}
	simlat.CPU(e.opts.StmtCost)
	if e.slots == nil {
		return func() {}
	}
	return func() { <-e.slots }
}

func (db *Database) table(name string) (*mvcc.Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	return t, ok
}

// Tables lists table names in sorted order.
func (db *Database) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Manager exposes the tenant's transaction manager (used by tests and by
// the dump path).
func (db *Database) Manager() *mvcc.Manager { return db.mgr }
