// Package wal implements a write-ahead log with group commit and, when
// given a directory, real on-disk durability with crash recovery.
//
// The log is the engine's commit-durability point. Its latency model is the
// crux of the Madeus reproduction: a commit is durable only after an fsync,
// and an fsync is expensive relative to in-memory work. In group-commit mode
// every fsync covers all commit requests that arrived while the previous
// fsync was in flight, so N concurrent commits cost far fewer than N fsyncs
// (the paper's C'_c < C_c, Sec 4.5.2). In serial mode each commit pays a
// full fsync by itself — the behaviour the B-CON baseline is stuck with when
// it serializes commit propagation.
//
// With Options.Dir set the log is backed by append-only segment files of
// length-prefixed, CRC-checksummed frames (see format.go). Append buffers
// the encoded record in memory; the fsync at each group-commit boundary
// writes the buffered tail and calls File.Sync, so an acknowledged commit
// survives a kill -9 while unacknowledged work may not — exactly the
// contract recovery replays against. Open truncates a torn tail (a crash
// mid-write) back to the last whole record, Replay walks the durable
// prefix emitting committed transactions for the engine's redo pass, and
// Rotate lets the engine's checkpoint retire fully-captured segments so
// recovery work stays bounded. Disk failures surface as Commit errors and
// are sticky: a log that failed a write refuses further commits rather
// than acknowledging work it may have lost. Without a directory the log
// keeps the previous behaviour — records are counted, batching and
// ordering logic is real, durability is simulated by SyncDelay alone.
package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"madeus/internal/fault"
	"madeus/internal/invariant"
	"madeus/internal/obs"
	"madeus/internal/simlat"
)

// Failpoint sites (armed only under -tags faultinject). wal.append and
// wal.fsync model latency faults (a Delay policy is a slow disk, a Hang
// policy a stalled device); error policies there are absorbed by design.
// wal.write is the durable write path: an injected error there tears the
// batch — half the buffered bytes reach the file, then the device fails —
// and the failure is sticky, like a real dying disk. wal.replay fails the
// recovery scan (a corrupt-media read). All sites are precomputed
// constants, so no site name is built on the hot path.
const (
	faultAppend = "wal.append"
	faultFsync  = "wal.fsync"
	faultWrite  = "wal.write"
	faultReplay = "wal.replay"
)

// Process-wide observability: one engine process may host several logs (the
// in-process test clusters), so these aggregate across all of them; the
// per-log Stats remain the exact per-instance view.
var (
	obsFsyncs  = obs.NewCounter("wal.fsyncs", "simulated fsyncs performed")
	obsCommits = obs.NewCounter("wal.commits", "commit requests served")
	obsRecords = obs.NewCounter("wal.records", "records appended")
	obsBytes   = obs.NewCounter("wal.durable_bytes", "bytes made durable by fsyncs")
	obsBatch   = obs.NewHistogram("wal.batch_size", "commits covered by one fsync", obs.SizeBuckets())
)

// Mode selects how commits reach disk.
type Mode int

const (
	// GroupCommit batches concurrent commit requests into shared fsyncs.
	GroupCommit Mode = iota
	// SerialCommit gives every commit its own exclusive fsync.
	SerialCommit
)

func (m Mode) String() string {
	if m == SerialCommit {
		return "serial"
	}
	return "group"
}

// RecordKind tags a log record.
type RecordKind int

// Record kinds. The numeric values are part of the on-disk format; append
// new kinds at the end.
const (
	RecBegin RecordKind = iota
	RecInsert
	RecUpdate
	RecDelete
	RecCommit
	RecAbort
	// RecDDL is a schema or catalog change (CREATE/DROP TABLE, INDEX,
	// DATABASE). DDL is non-transactional in the engine — applied
	// immediately, never rolled back — so replay applies a RecDDL at its
	// own LSN regardless of the surrounding transaction's outcome.
	RecDDL
)

// Record is one WAL entry. Data is the engine's rendering of the change:
// for write records a single self-contained SQL statement with literal
// values and primary-key predicates, so redo never re-evaluates a predicate
// against state the original execution did not see. LSN is assigned by
// Append: a strictly increasing log sequence number.
type Record struct {
	LSN   uint64
	TxnID uint64
	Kind  RecordKind
	DB    string
	Table string
	Data  string
}

// Options configures a Log.
type Options struct {
	// SyncDelay is the simulated portion of fsync latency, added on top
	// of any real disk time. Zero means no modeled delay.
	SyncDelay time.Duration
	// Mode selects group or serial commit.
	Mode Mode
	// RetainRecords keeps up to this many recent records in memory for
	// inspection (tests); 0 retains none.
	RetainRecords int
	// Dir, when non-empty, backs the log with append-only segment files
	// (Dir/wal-NNNNNN.log) and enables Replay. Empty keeps the log
	// in-memory.
	Dir string
}

// Stats reports accounting counters. Obtained via Log.Stats.
type Stats struct {
	Fsyncs   uint64 // number of fsyncs performed
	Commits  uint64 // number of commit requests served
	Records  uint64 // number of records appended
	MaxBatch int    // largest number of commits covered by one fsync
}

// Log is a write-ahead log shared by all tenants of one engine instance
// (the shared-process model: one transaction log per DBMS process, avoiding
// the per-tenant random log access of the VM-instance model).
type Log struct {
	opts Options

	records atomic.Uint64
	commits atomic.Uint64
	fsyncs  atomic.Uint64
	durable atomic.Uint64 // highest LSN the file (or simulation) has synced
	bytes   atomic.Uint64 // bytes written and synced

	//madeusvet:lockrank wal 50
	mu       sync.Mutex // serial mode fsync; also guards retained/maxBatch
	retained []Record
	maxBatch int

	// wmu guards the durable write path: the segment file handle, the
	// buffered tail awaiting the next fsync, and the sticky write error.
	// Ranked above mu so serial commits may flush while holding mu.
	//madeusvet:lockrank walfile 52
	wmu        sync.Mutex
	f          *os.File
	seq        int // current segment sequence number
	pending    []byte
	pendingLSN uint64              // LSN of the last buffered record
	openTxns   map[uint64]struct{} // txns with unresolved write records
	writeErr   error               // first write/sync failure; sticky

	reqs   chan chan error
	stop   chan struct{}
	closed sync.Once
	wg     sync.WaitGroup
}

// segmentName renders the file name of segment seq.
func segmentName(seq int) string { return fmt.Sprintf("wal-%06d.log", seq) }

// listSegments returns the dir's segment file names in sequence order.
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") {
			segs = append(segs, name)
		}
	}
	sort.Strings(segs) // zero-padded sequence numbers sort lexically
	return segs, nil
}

// segmentSeq parses the sequence number out of a segment file name.
func segmentSeq(name string) int {
	var seq int
	fmt.Sscanf(name, "wal-%06d.log", &seq)
	return seq
}

// New creates a log and, in group mode, starts its committer. It panics if
// Options.Dir is set and the file cannot be opened; durable callers should
// use Open and handle the error.
func New(opts Options) *Log {
	l, err := Open(opts)
	if err != nil {
		panic(fmt.Sprintf("wal: %v", err))
	}
	return l
}

// Open creates a log. With Options.Dir set it opens the existing segment
// files (creating the first if none exist), truncates any torn tail back
// to the last whole record — a crash mid-write must not leave garbage in
// front of the scan — and restores the LSN counter so new records continue
// the sequence.
func Open(opts Options) (*Log, error) {
	l := &Log{
		opts: opts,
		reqs: make(chan chan error, 1024),
		stop: make(chan struct{}),
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, err
		}
		segs, err := listSegments(opts.Dir)
		if err != nil {
			return nil, err
		}
		var maxLSN uint64
		for _, name := range segs {
			path := filepath.Join(opts.Dir, name)
			f, err := os.OpenFile(path, os.O_RDWR, 0o644)
			if err != nil {
				return nil, err
			}
			validEnd, _, err := scanRecords(f, func(rec Record, _ int64) error {
				if rec.LSN > maxLSN {
					maxLSN = rec.LSN
				}
				return nil
			})
			if err == nil {
				err = f.Truncate(validEnd)
			}
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("wal: open %s: %w", name, err)
			}
		}
		l.seq = 1
		if len(segs) > 0 {
			l.seq = segmentSeq(segs[len(segs)-1])
		}
		f, err := os.OpenFile(filepath.Join(opts.Dir, segmentName(l.seq)),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		l.f = f
		l.openTxns = make(map[uint64]struct{})
		l.records.Store(maxLSN)
		l.durable.Store(maxLSN)
		l.pendingLSN = maxLSN
	}
	if opts.Mode == GroupCommit {
		l.wg.Add(1)
		go l.committer()
	}
	return l, nil
}

// Append buffers a record, assigning its LSN. It does not sync: the record
// becomes durable at the next fsync (group-commit boundary or Sync call).
func (l *Log) Append(rec Record) {
	_ = fault.Inject(faultAppend)
	if l.opts.Dir != "" {
		// LSN assignment and buffer order must agree — the scan asserts
		// monotonic LSNs — so both happen under wmu.
		l.wmu.Lock()
		rec.LSN = l.records.Add(1)
		l.pending = encodeRecord(l.pending, rec)
		l.pendingLSN = rec.LSN
		if rec.TxnID != 0 {
			switch rec.Kind {
			case RecBegin, RecInsert, RecUpdate, RecDelete:
				l.openTxns[rec.TxnID] = struct{}{}
			case RecCommit, RecAbort:
				delete(l.openTxns, rec.TxnID)
			}
		}
		l.wmu.Unlock()
	} else {
		rec.LSN = l.records.Add(1)
	}
	obsRecords.Inc()
	if l.opts.RetainRecords > 0 {
		l.mu.Lock()
		if n := len(l.retained); n < l.opts.RetainRecords {
			if n > 0 {
				invariant.Assertf(rec.LSN > l.retained[n-1].LSN,
					"wal: LSN %d not monotonic (last retained %d)", rec.LSN, l.retained[n-1].LSN)
			}
			l.retained = append(l.retained, rec)
		}
		l.mu.Unlock()
	}
}

// AppendBatch buffers recs in order under a single lock acquisition,
// assigning consecutive LSNs. One statement touching many rows emits one
// batch instead of one lock round-trip per record, and every record is
// encoded back-to-back into the reusable pending buffer. Equivalent to
// calling Append on each record, only cheaper.
func (l *Log) AppendBatch(recs []Record) {
	if len(recs) == 0 {
		return
	}
	_ = fault.Inject(faultAppend)
	if l.opts.Dir != "" {
		l.wmu.Lock()
		for i := range recs {
			rec := &recs[i]
			rec.LSN = l.records.Add(1)
			l.pending = encodeRecord(l.pending, *rec)
			l.pendingLSN = rec.LSN
			if rec.TxnID != 0 {
				switch rec.Kind {
				case RecBegin, RecInsert, RecUpdate, RecDelete:
					l.openTxns[rec.TxnID] = struct{}{}
				case RecCommit, RecAbort:
					delete(l.openTxns, rec.TxnID)
				}
			}
		}
		l.wmu.Unlock()
	} else {
		for i := range recs {
			recs[i].LSN = l.records.Add(1)
		}
	}
	obsRecords.Add(uint64(len(recs)))
	if l.opts.RetainRecords > 0 {
		l.mu.Lock()
		for i := range recs {
			n := len(l.retained)
			if n >= l.opts.RetainRecords {
				break
			}
			if n > 0 {
				invariant.Assertf(recs[i].LSN > l.retained[n-1].LSN,
					"wal: LSN %d not monotonic (last retained %d)", recs[i].LSN, l.retained[n-1].LSN)
			}
			l.retained = append(l.retained, recs[i])
		}
		l.mu.Unlock()
	}
}

// Retained returns the retained record prefix (tests only).
func (l *Log) Retained() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, len(l.retained))
	copy(out, l.retained)
	return out
}

// Commit makes the calling transaction's records durable. It blocks until
// an fsync covering this commit completes, and returns the write error if
// the disk failed — the caller must not acknowledge the commit then.
func (l *Log) Commit() error {
	l.commits.Add(1)
	obsCommits.Inc()
	if l.opts.Mode == SerialCommit {
		// Serial mode models an EXCLUSIVE fsync per commit: the log mutex
		// is held across it by design, the modeled cost (B-CON's
		// baseline).
		l.mu.Lock()
		err := l.fsync()
		l.mu.Unlock()
		l.noteBatch(1)
		return err
	}
	done := make(chan error, 1)
	select {
	case l.reqs <- done:
	case <-l.stop:
		return fmt.Errorf("wal: log closed")
	}
	select {
	case err := <-done:
		return err
	case <-l.stop:
		return fmt.Errorf("wal: log closed")
	}
}

// committer is the group-commit loop: it takes the first pending commit,
// drains everything else already queued, performs one fsync, and acks the
// whole batch (propagating a disk failure to every covered commit).
// Requests arriving during the fsync form the next batch.
func (l *Log) committer() {
	defer l.wg.Done()
	for {
		var batch []chan error
		select {
		case first := <-l.reqs:
			batch = append(batch, first)
		case <-l.stop:
			return
		}
	drain:
		for {
			select {
			case next := <-l.reqs:
				batch = append(batch, next)
			default:
				break drain
			}
		}
		err := l.fsync()
		// Group-commit accounting invariants: a batch covers at least one
		// commit, and no fsync ever happens without a commit to cover —
		// the C'_c < C_c inequality the paper's Sec 4.5.2 rests on.
		invariant.Assertf(len(batch) >= 1, "wal: empty group-commit batch")
		invariant.Check(func() error {
			if f, c := l.fsyncs.Load(), l.commits.Load(); f > c {
				return fmt.Errorf("wal: %d fsyncs exceed %d commit requests", f, c)
			}
			return nil
		})
		l.noteBatch(len(batch))
		for _, done := range batch {
			done <- err
		}
	}
}

// fsync flushes the buffered tail to disk (durable mode) and models the
// sync latency. The returned error is the flush failure, if any; the
// latency site wal.fsync still absorbs injected errors (it models delay and
// hang faults only).
func (l *Log) fsync() error {
	l.wmu.Lock()
	err := l.flushLocked()
	l.wmu.Unlock()
	_ = fault.Inject(faultFsync)
	simlat.IO(l.opts.SyncDelay)
	l.fsyncs.Add(1)
	obsFsyncs.Inc()
	return err
}

// flushLocked writes the buffered records and syncs the segment file.
// Caller holds wmu. Failures are sticky: once a write or sync failed,
// every subsequent flush reports the original error, because records
// buffered after a lost write must never be acknowledged as durable.
func (l *Log) flushLocked() error {
	if l.writeErr != nil {
		return l.writeErr
	}
	if l.f == nil {
		// Simulated durability: everything appended so far is "synced".
		l.durable.Store(l.records.Load())
		return nil
	}
	if len(l.pending) == 0 {
		return nil
	}
	if err := fault.Inject(faultWrite); err != nil {
		// Torn-write policy: half the batch reaches the platter, then the
		// device dies. Open on restart truncates the torn tail; the
		// injected fault is the error the caller sees, not these writes'.
		if n := len(l.pending) / 2; n > 0 {
			_, _ = l.f.Write(l.pending[:n])
			_ = l.f.Sync()
		}
		l.pending = nil
		l.writeErr = err
		return err
	}
	n, err := l.f.Write(l.pending)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.pending = nil
		l.writeErr = err
		return err
	}
	l.bytes.Add(uint64(n))
	obsBytes.Add(uint64(n))
	l.pending = l.pending[:0]
	l.durable.Store(l.pendingLSN)
	return nil
}

// Sync forces the buffered tail to disk outside any commit and returns the
// durable LSN. Used by the engine's checkpoint to pin "everything up to
// here is on disk" before recording the checkpoint LSN. It pays the sync
// latency but is not counted as a commit fsync (the Stats counters model
// commit-path accounting only).
func (l *Log) Sync() (uint64, error) {
	l.wmu.Lock()
	err := l.flushLocked()
	l.wmu.Unlock()
	simlat.IO(l.opts.SyncDelay)
	return l.durable.Load(), err
}

// Rotate closes the current segment and starts a new one. The engine's
// checkpoint calls it (with commits blocked and the tail synced) so the
// retired segments hold only records at or before the checkpoint LSN plus
// write records of still-open transactions. It returns the retired segment
// paths and whether deleting them is safe — true only when no transaction
// has unresolved write records, since those records live in the retired
// segments and a later commit would replay an incomplete transaction
// without them. When unsafe, the caller keeps the segments; replay skips
// their already-checkpointed units by LSN, so the only cost is scan time.
func (l *Log) Rotate() (retired []string, safeToDelete bool, err error) {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if l.f == nil {
		return nil, false, nil
	}
	if err := l.flushLocked(); err != nil {
		return nil, false, err
	}
	segs, err := listSegments(l.opts.Dir)
	if err != nil {
		return nil, false, err
	}
	next, err := os.OpenFile(filepath.Join(l.opts.Dir, segmentName(l.seq+1)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, false, err
	}
	l.f.Close()
	l.f = next
	l.seq++
	for _, name := range segs {
		if segmentSeq(name) < l.seq {
			retired = append(retired, filepath.Join(l.opts.Dir, name))
		}
	}
	return retired, len(l.openTxns) == 0, nil
}

// noteBatch records group-commit accounting for one fsync batch.
func (l *Log) noteBatch(n int) {
	invariant.Assertf(n >= 1, "wal: batch of %d commits noted", n)
	obsBatch.Observe(int64(n))
	l.mu.Lock()
	if n > l.maxBatch {
		l.maxBatch = n
	}
	l.mu.Unlock()
}

// Stats returns a snapshot of the accounting counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	mb := l.maxBatch
	l.mu.Unlock()
	return Stats{
		Fsyncs:   l.fsyncs.Load(),
		Commits:  l.commits.Load(),
		Records:  l.records.Load(),
		MaxBatch: mb,
	}
}

// AdvanceLSN raises the LSN sequence (and the durable watermark) to at
// least lsn. The engine's recovery calls it with the checkpoint LSN: when a
// checkpoint retired every segment, the on-disk log restarts empty, but new
// records must continue the global sequence — a record numbered below the
// checkpoint LSN would be skipped by the applied-LSN gate on the next
// recovery.
func (l *Log) AdvanceLSN(lsn uint64) {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if l.records.Load() < lsn {
		l.records.Store(lsn)
		l.pendingLSN = lsn
	}
	if l.durable.Load() < lsn {
		l.durable.Store(lsn)
	}
}

// DurableLSN returns the highest LSN guaranteed on disk.
func (l *Log) DurableLSN() uint64 { return l.durable.Load() }

// LastLSN returns the highest LSN assigned so far (durable or not).
func (l *Log) LastLSN() uint64 { return l.records.Load() }

// Close stops the committer and, in durable mode, flushes the buffered
// tail before closing the file — a graceful shutdown loses nothing.
// Pending commits fail with an error.
func (l *Log) Close() {
	l.closed.Do(func() {
		close(l.stop)
		l.wg.Wait()
		if l.opts.Dir != "" {
			l.wmu.Lock()
			// Best-effort: a flush failure is already sticky in writeErr
			// and the log is going away.
			_ = l.flushLocked()
			if l.f != nil {
				l.f.Close()
			}
			l.writeErr = fmt.Errorf("wal: log closed")
			l.wmu.Unlock()
		}
	})
}

// Crash simulates kill -9: the committer stops and the file closes WITHOUT
// flushing the buffered tail, losing every record since the last fsync —
// exactly what a power cut does to a page cache. Tests use it to exercise
// recovery; production shutdown is Close.
func (l *Log) Crash() {
	l.closed.Do(func() {
		close(l.stop)
		l.wg.Wait()
		l.wmu.Lock()
		l.pending = nil
		if l.f != nil {
			l.f.Close()
		}
		l.writeErr = fmt.Errorf("wal: log crashed")
		l.wmu.Unlock()
	})
}
