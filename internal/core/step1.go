package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"madeus/internal/engine"
	"madeus/internal/fault"
	"madeus/internal/flow"
	"madeus/internal/invariant"
	"madeus/internal/wire"
)

// Pipelined Step-1 failpoint sites (armed only under -tags faultinject).
// faultStep1Chunk fires in the transfer stage once per chunk (a conn-drop
// policy kills the stream mid-flight and exercises the rollback protocol);
// faultStep1Restore fires in a restore applier once per chunk.
const (
	faultStep1Chunk   = "core.step1.chunk"
	faultStep1Restore = "core.step1.restore"
)

// Pipeline shape. The chunk size is the middleware's dumpChunk.
const (
	restoreAppliers    = 4 // parallel appliers per slave
	restoreQueueChunks = 2 // per-slave bounded channel depth
	// chunkStmtOverhead approximates the per-statement bookkeeping cost
	// added to the statement bytes when charging a chunk against the
	// transfer budget (string header, slice slot, frame header amortized).
	chunkStmtOverhead = 32
)

// errAllSlavesDead aborts the producer once every slave's restore failed.
// It is not a source-side failure: pipelineSnapshot strips it from
// streamErr so Migrate attributes the rollback to Step 2 (the slave
// errors).
var errAllSlavesDead = errors.New("core: every slave failed during restore")

// step1Chunk is one chunk of the dump in flight between the source stream
// and the restore appliers: the schema prologue's statements, or one row
// statement, each aliasing frame, the frame the chunk arrived in. refs
// counts the slaves that still hold it; the last one out returns its bytes
// to the transfer budget and its frame to the wire's pool.
type step1Chunk struct {
	stmts  []string
	frame  []byte
	bytes  int64
	refs   atomic.Int32
	budget *flow.TransferBudget
}

// release drops one slave's claim; the last claim returns the bytes and
// the frame, which no slave reads any more.
func (c *step1Chunk) release() {
	if c.refs.Add(-1) == 0 {
		c.budget.Release(c.bytes)
		wire.ReleaseFrame(c.frame)
	}
}

// pipelineResult is what pipelineSnapshot hands back to Migrate.
type pipelineResult struct {
	chunks    int   // chunks streamed from the source
	stmts     int   // Dump's statements streamed: DDL, and row sections
	peakBytes int64 // high-water mark of resident transfer bytes
	dumpTime  time.Duration
	// streamErr is a source-side failure (the dump stream or its COMMIT):
	// the whole migration rolls back at step1.snapshot.
	streamErr error
	// slaveErr maps each failed slave to its first error; Migrate applies
	// the Sec 4.2 discard rule (survivors continue, none left = rollback).
	slaveErr map[Backend]error
}

// slaveRun is one destination's restore pipeline.
type slaveRun struct {
	sl   Backend
	ch   chan *step1Chunk
	done chan struct{} // closed when this slave's restore failed
	err  error
}

// pipelineSnapshot is Step 1 + Step 2 as one three-stage pipeline
// (dump → transfer → restore). ctl must hold the open dump transaction
// with its snapshot already pinned; chunk is the sections per chunk and
// trace the attempt's trace context (nil: plain frames).
//
//	stage 1  the source session streams bounded statement chunks
//	         (DUMP STREAM over the wire's multi-frame response)
//	stage 2  each chunk is charged against the flow transfer budget and
//	         broadcast to every live slave over a bounded channel —
//	         a slow destination backpressures the dump scan here, so
//	         resident transfer memory stays under the configured cap
//	stage 3  per slave, chunk 0 — the schema prologue DUMP STREAM sends
//	         whole and first — is applied alone; then N parallel
//	         appliers take chunks off the slave's channel, each sending
//	         a chunk's one row statement as it arrived, from the frame
//	         the chunk was read into (one round trip and one WAL commit
//	         per chunk)
//
// The dump transaction COMMITs as soon as the scan finishes — the source
// stops pinning MVCC versions while slaves are still applying.
func pipelineSnapshot(ctl *wire.Client, tenant string, slaves []Backend,
	chunk int, trace *wire.TraceContext, budget *flow.TransferBudget) *pipelineResult {
	res := &pipelineResult{slaveErr: make(map[Backend]error)}

	runs := make([]*slaveRun, len(slaves))
	var wg sync.WaitGroup
	live := int32(len(slaves))
	// allDead aborts the producer early (and unblocks a budget wait) once
	// every slave has failed: no point finishing a dump nobody will apply.
	allDead := make(chan struct{})
	for i, sl := range slaves {
		sr := &slaveRun{sl: sl, ch: make(chan *step1Chunk, restoreQueueChunks), done: make(chan struct{})}
		runs[i] = sr
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := restoreStream(sr, tenant, trace); err != nil {
				sr.err = err
				close(sr.done)
				if atomic.AddInt32(&live, -1) == 0 {
					close(allDead)
				}
			}
			// Keep consuming after a failure (and after restoreStream
			// returns) so the producer never blocks on a dead slave and
			// every routed chunk returns its budget claim.
			for c := range sr.ch {
				c.release()
			}
		}()
	}

	start := time.Now()
	sink := func(_ uint32, stmts []string, frame []byte) error {
		if ferr := fault.Inject(faultStep1Chunk); ferr != nil {
			return ferr
		}
		select {
		case <-allDead:
			return errAllSlavesDead
		default:
		}
		c := &step1Chunk{stmts: stmts, frame: frame, budget: budget}
		sections := 0
		for _, s := range stmts {
			c.bytes += int64(len(s)) + chunkStmtOverhead
			sections += max(1, engine.Sections(s))
		}
		c.refs.Store(int32(len(runs)))
		stall := time.Now()
		if err := budget.Acquire(c.bytes, allDead); err != nil {
			return err
		}
		res.chunks++
		res.stmts += sections
		obsChunkBytes.Observe(c.bytes)
		obsChunks.Inc()
		for _, sr := range runs {
			select {
			case sr.ch <- c:
			case <-sr.done:
				c.release() // dead slave: its claim is returned unapplied
			}
		}
		obsChunkStall.ObserveDuration(time.Since(stall))
		return nil
	}

	_, err := ctl.ExecStreamFrames(fmt.Sprintf("DUMP STREAM %d", chunk), sink)
	if err == nil {
		_, err = ctl.Exec("COMMIT")
	}
	res.dumpTime = time.Since(start)
	if err != nil && (errors.Is(err, errAllSlavesDead) || errors.Is(err, flow.ErrTransferAborted)) {
		// The stream died because the destinations did; the per-slave
		// errors carry the real cause and Migrate's discard rule decides.
		err = nil
	}
	res.streamErr = err
	// End of stream (clean or not): closing the channels lets every
	// slave's appliers finish, drain, and exit.
	for _, sr := range runs {
		close(sr.ch)
	}
	wg.Wait()
	for _, sr := range runs {
		if sr.err != nil {
			res.slaveErr[sr.sl] = sr.err
		}
	}
	res.peakBytes = budget.Peak()
	invariant.Check(func() error {
		if used := budget.Used(); used != 0 {
			return fmt.Errorf("core: step1 transfer budget leaked %d bytes", used)
		}
		return nil
	})
	return res
}

// restoreStream restores one slave from the chunk stream. Chunk 0 carries
// the whole schema (engine.DumpStream's prologue) and is the migration's one
// serial barrier: it is applied alone, before any applier starts. After it
// restoreAppliers parallel appliers (each with its own connection, each
// chunk one statement and one transaction) take chunks straight off the
// slave's channel. The first failure stops them all: the slave is discarded
// whole, so nothing tracks which chunks committed.
func restoreStream(sr *slaveRun, tenant string, trace *wire.TraceContext) error {
	if ferr := fault.Inject(faultStep2Restore); ferr != nil {
		return ferr
	}
	if err := createFreshDatabase(sr.sl, tenant); err != nil {
		return err
	}
	conns := make([]*wire.Client, 0, restoreAppliers)
	defer func() {
		for _, cn := range conns {
			cn.Close()
		}
	}()
	for i := 0; i < restoreAppliers; i++ {
		site := "" // only the first dial is the partition failpoint's
		if i == 0 {
			site = faultRestoreDial
		}
		cn, err := connectRetry(sr.sl, tenant, site, trace)
		if err != nil {
			return err
		}
		conns = append(conns, cn)
	}

	schema, ok := <-sr.ch
	if !ok {
		return nil
	}
	err := applyChunk(conns[0], schema, true)
	schema.release()
	if err != nil {
		return fmt.Errorf("core: restore on %s: %w", sr.sl.BackendName(), err)
	}

	var (
		appliers          sync.WaitGroup
		stop              = make(chan struct{})
		stopOnce          sync.Once
		firstErr          error
		received, applied atomic.Int64
	)
	for _, cn := range conns {
		appliers.Add(1)
		go func() {
			defer appliers.Done()
			for {
				select {
				case <-stop:
					return
				case c, ok := <-sr.ch:
					if !ok {
						return
					}
					received.Add(1)
					err := applyChunk(cn, c, false)
					c.release()
					if err != nil {
						stopOnce.Do(func() {
							firstErr = err
							close(stop)
						})
						return
					}
					applied.Add(1)
				}
			}
		}()
	}
	appliers.Wait()
	if firstErr != nil {
		return fmt.Errorf("core: restore on %s: %w", sr.sl.BackendName(), firstErr)
	}
	invariant.Check(func() error {
		if a, r := applied.Load(), received.Load(); a != r {
			return fmt.Errorf("core: step1 restore applied %d of %d chunks with no error", a, r)
		}
		return nil
	})
	return nil
}

// applyChunk applies one chunk as one transaction, one WAL commit per
// chunk. The schema chunk is BEGIN, its statements and COMMIT: the engine
// applies DDL at once (it is not transactional) but logs it in the
// enclosing scope, so the prologue pays one fsync, not one per statement.
// A row chunk is its row statements joined into one, sent in autocommit:
// one round trip. DumpStream promises that every chunk after the schema
// holds only row statements and that row statements joined are one; the
// middleware relies on that alone and never looks inside a row. A DUMP
// STREAM chunk is one row statement already, which the join returns as it
// is: it goes out from the frame it arrived in, with no copy.
func applyChunk(cn *wire.Client, c *step1Chunk, schema bool) error {
	if ferr := fault.Inject(faultStep1Restore); ferr != nil {
		return ferr
	}
	start := time.Now()
	var stmts []string
	if schema {
		stmts = append(append([]string{"BEGIN"}, c.stmts...), "COMMIT")
	} else {
		stmts = []string{strings.Join(c.stmts, "")}
	}
	for _, stmt := range stmts {
		if _, err := cn.ExecReply(stmt); err != nil {
			_, _ = cn.ExecReply("ROLLBACK") // best-effort; the slave is discarded anyway
			return err
		}
	}
	obsApplyLatency.ObserveDuration(time.Since(start))
	return nil
}
