package engine

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"madeus/internal/fault"
	"madeus/internal/invariant"
	"madeus/internal/mvcc"
	"madeus/internal/obs"
	"madeus/internal/wal"
)

// Failpoint site (armed only under -tags faultinject): engine.checkpoint
// fails a checkpoint before it does any work — the engine keeps running on
// the previous checkpoint plus a longer WAL, which is exactly the degraded
// mode a full checkpoint disk would cause.
const faultCheckpoint = "engine.checkpoint"

var (
	obsCkptCount = obs.NewCounter("engine.checkpoints", "checkpoints completed")
	obsCkptDur   = obs.NewHistogram("engine.checkpoint.duration", "checkpoint wall time", obs.DurationBuckets())
	obsCkptBytes = obs.NewCounter("engine.checkpoint.bytes", "bytes written by checkpoint table files")
)

// On-disk checkpoint layout under DataDir:
//
//	CURRENT            -> base name of the live checkpoint directory
//	ckpt-<lsn>/        -> one immutable checkpoint
//	    meta.json      -> ckptMeta (LSN, tenant list)
//	    db-<i>.tbl     -> tenant i's state as framed statements
//
// A .tbl file is a sequence of wal.AppendFrame frames (the same
// length-prefixed CRC pages as the log), each carrying one statement:
// schema DDL first, then row statements — a dump script in page form,
// whose rows load without a parse.
// Checkpoints become live by writing the directory under a temporary name,
// renaming it into place, and then atomically swapping CURRENT; a crash at
// any point leaves CURRENT naming a complete older checkpoint.
const (
	currentFile  = "CURRENT"
	ckptPrefix   = "ckpt-"
	ckptMetaFile = "meta.json"
	ckptTmpDir   = "ckpt-tmp"
)

type ckptMeta struct {
	LSN uint64   `json:"lsn"`
	DBs []string `json:"dbs"`
}

func ckptDirName(lsn uint64) string { return fmt.Sprintf("ckpt-%016d", lsn) }

// tableCapture pins one table's identity under the checkpoint's exclusive
// section; the actual row scan happens afterwards through the pinned
// transaction's snapshot.
type tableCapture struct {
	tb      *mvcc.Table
	indexes map[string]string
}

type dbCapture struct {
	name   string
	txn    *mvcc.Txn
	tables []tableCapture
}

// Checkpoint writes a durable snapshot of every tenant's committed state and
// records the checkpoint LSN, bounding how much WAL a recovery must replay.
//
// The exclusive section (under ckptMu) is short: sync the WAL tail, pin one
// MVCC snapshot per tenant, and rotate the log. Because every commit point
// holds ckptMu's read side across its WAL fsync and MVCC commit, the pinned
// snapshots contain exactly the transactions whose commit records are
// durable at LSN <= the checkpoint LSN — recovery loads the checkpoint and
// replays only units beyond it. Writing the table files happens after the
// lock is released, against the pinned snapshots, so commits resume while
// the checkpoint streams to disk.
//
// Returns the checkpoint LSN (which may be an older checkpoint's LSN if
// nothing was committed since — the write is skipped then).
func (e *Engine) Checkpoint() (uint64, error) {
	if e.opts.DataDir == "" {
		return 0, fmt.Errorf("engine: checkpoint requires a durable engine (no DataDir)")
	}
	if err := fault.Inject(faultCheckpoint); err != nil {
		return 0, fmt.Errorf("engine: checkpoint: %w", err)
	}
	start := time.Now()

	e.ckptMu.Lock()
	lsn, err := e.log.Sync()
	if err != nil {
		e.ckptMu.Unlock()
		return 0, fmt.Errorf("engine: checkpoint: %w", err)
	}
	if lsn == e.ckptLSN.Load() {
		// No commits since the last checkpoint: it is still exact.
		e.ckptMu.Unlock()
		return lsn, nil
	}
	var caps []dbCapture
	for _, name := range e.Databases() {
		db, ok := e.Database(name)
		if !ok {
			continue
		}
		cap := dbCapture{name: name, txn: db.mgr.Begin()} // snapshot pinned at Begin
		for _, tn := range db.Tables() {
			tb, ok := db.table(tn)
			if !ok {
				continue
			}
			cap.tables = append(cap.tables, tableCapture{tb: tb, indexes: tb.Indexes()})
		}
		caps = append(caps, cap)
	}
	retired, safeToDelete, rerr := e.log.Rotate()
	e.ckptMu.Unlock()

	release := func() {
		for _, cap := range caps {
			cap.txn.Abort()
		}
	}
	if rerr != nil {
		release()
		return 0, fmt.Errorf("engine: checkpoint: %w", rerr)
	}

	// Write phase: no engine locks held; customer commits proceed.
	tmp := filepath.Join(e.opts.DataDir, ckptTmpDir)
	if err := os.RemoveAll(tmp); err != nil {
		release()
		return 0, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		release()
		return 0, err
	}
	meta := ckptMeta{LSN: lsn}
	var wrote int64
	for i, cap := range caps {
		n, err := writeCheckpointDB(filepath.Join(tmp, fmt.Sprintf("db-%d.tbl", i)), cap, e.opts.DumpBatch)
		if err != nil {
			release()
			return 0, fmt.Errorf("engine: checkpoint %s: %w", cap.name, err)
		}
		wrote += n
		meta.DBs = append(meta.DBs, cap.name)
	}
	release()
	mb, err := json.Marshal(meta)
	if err != nil {
		return 0, err
	}
	if err := writeFileSync(filepath.Join(tmp, ckptMetaFile), mb); err != nil {
		return 0, err
	}
	final := filepath.Join(e.opts.DataDir, ckptDirName(lsn))
	if err := os.RemoveAll(final); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, final); err != nil {
		return 0, err
	}
	// Swap CURRENT atomically; only after this is the new checkpoint live
	// and only after that may older checkpoints and WAL segments go away.
	if err := writeFileSync(filepath.Join(e.opts.DataDir, currentFile+".tmp"), []byte(ckptDirName(lsn))); err != nil {
		return 0, err
	}
	if err := os.Rename(filepath.Join(e.opts.DataDir, currentFile+".tmp"), filepath.Join(e.opts.DataDir, currentFile)); err != nil {
		return 0, err
	}
	e.ckptLSN.Store(lsn)
	e.checkCkptLSN(lsn)

	e.removeStaleCheckpoints(ckptDirName(lsn))
	if safeToDelete {
		for _, p := range retired {
			// Best-effort: a leftover segment only costs replay scan time.
			_ = os.Remove(p)
		}
	}

	obsCkptCount.Inc()
	obsCkptDur.ObserveDuration(time.Since(start))
	obsCkptBytes.Add(uint64(wrote))
	obs.Trace.Emit("", "checkpoint.end",
		obs.F("lsn", lsn), obs.F("bytes", wrote), obs.F("dbs", len(caps)),
		obs.F("retired", len(retired)), obs.F("deleted", safeToDelete))
	return lsn, nil
}

// writeCheckpointDB streams one tenant's pinned snapshot to path as framed
// statements and returns the bytes written. The scan runs through the
// pinned transaction, so concurrent commits after the checkpoint LSN are
// invisible by construction.
func writeCheckpointDB(path string, cap dbCapture, dumpBatch int) (int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	var total int64
	var buf, stmt []byte
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		n, err := f.Write(buf)
		total += int64(n)
		buf = buf[:0]
		return err
	}
	emit := func(stmt []byte) error {
		buf = wal.AppendFrame(buf, stmt)
		if len(buf) >= 1<<20 {
			return flush()
		}
		return nil
	}
	for _, tc := range cap.tables {
		for _, ddl := range schemaSQL(tc.tb.Schema, tc.indexes) {
			if err := emit([]byte(ddl)); err != nil {
				f.Close()
				return total, err
			}
		}
		var err error
		if stmt, err = scanRows(stmt, tc.tb, cap.txn, dumpBatch, func(b []byte) ([]byte, error) {
			return b[:0], emit(b)
		}); err != nil {
			f.Close()
			return total, err
		}
	}
	if err := flush(); err != nil {
		f.Close()
		return total, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return total, err
	}
	return total, f.Close()
}

// writeFileSync writes data to path and syncs it before closing — the
// checkpoint's rename-based commit protocol needs the content on disk
// before the pointer flips.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// removeStaleCheckpoints deletes every ckpt-* directory except the live one
// (best-effort: stale checkpoints are garbage, not state).
func (e *Engine) removeStaleCheckpoints(keep string) {
	entries, err := os.ReadDir(e.opts.DataDir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		name := ent.Name()
		if !ent.IsDir() || !strings.HasPrefix(name, ckptPrefix) || name == keep {
			continue
		}
		// Best-effort cleanup of superseded checkpoint directories.
		_ = os.RemoveAll(filepath.Join(e.opts.DataDir, name))
	}
}

// checkCkptLSN asserts the recorded checkpoint never claims more than the
// log has durably synced — a checkpoint "ahead" of the disk would make
// recovery silently skip committed work.
func (e *Engine) checkCkptLSN(lsn uint64) {
	invariant.Check(func() error {
		if d := e.log.DurableLSN(); lsn > d {
			return fmt.Errorf("engine: checkpoint LSN %d exceeds durable LSN %d", lsn, d)
		}
		return nil
	})
}

// CheckpointLSN reports the LSN of the last completed checkpoint (0 when
// none has run).
func (e *Engine) CheckpointLSN() uint64 { return e.ckptLSN.Load() }

// checkpointLoop runs periodic checkpoints until Close/Crash.
func (e *Engine) checkpointLoop() {
	defer e.wg.Done()
	t := time.NewTicker(e.opts.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if _, err := e.Checkpoint(); err != nil {
				obs.Trace.Emit("", "checkpoint.error", obs.F("err", err.Error()))
			}
		case <-e.ckptStop:
			return
		}
	}
}
