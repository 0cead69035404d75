package core

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"

	"madeus/internal/fault"
	"madeus/internal/simlat"
	"madeus/internal/wire"
)

// errAborted marks propagation cancelled by the manager.
var errAborted = errors.New("core: propagation aborted")

// Step-3 failpoint sites (armed only under -tags faultinject): the
// propagator's destination dials and every replayed statement.
const (
	faultStep3Dial = "core.step3.dial"
	faultStep3Exec = "core.step3.exec"
)

// PropagationStats summarizes one Step-3 run.
type PropagationStats struct {
	Syncsets     int   // syncsets applied on the slave
	Ops          int   // operations (incl. BEGIN/COMMIT) sent to the slave
	CommitGroups []int // commit batch sizes (Madeus: >1 means group commit)
	MaxGroup     int
}

// propagator drives Step 3 for one migration: it consumes the tenant's SSL
// and replays syncsets on the destination according to the strategy.
type propagator struct {
	t        *Tenant
	dest     Backend
	strategy Strategy
	mts      uint64

	// trace is the migration's wire trace context (nil when obs is off);
	// every pooled destination connection carries it so the slave-side
	// replay traffic is attributable to the migration.
	trace *wire.TraceContext

	// conn pool
	poolMu sync.Mutex //madeusvet:lockrank conductor-pool 12
	idle   []*wire.Client

	// progress accounting. A leaf lock: players and the tenant-holding
	// propagator loop both poll it (stopRequested), so it ranks above the
	// tenant critical region and nothing is acquired while it is held.
	mu      sync.Mutex //madeusvet:lockrank propagator-progress 26
	applied int
	ops     int
	stats   PropagationStats
	err     error
	stopReq bool
	abort   chan struct{} // closed on failure/abort
	aborted bool
	done    chan struct{} // closed when the run loop exits

	// progress wakes the manager's Step-3 wait: one coalescing token per
	// applied syncset and per failure, shared by every slave's propagator
	// of the migration (nil when nothing waits).
	progress chan<- struct{}

	cursor int // next ABSOLUTE SSL index to consume (run loop only)

	// B-CON commit token: players block on herdCond and are ALL woken at
	// every commit (the naive pthread pattern the paper blames for
	// B-CON's collapse: "all players compete for the pthread mutex lock
	// at every commit time").
	herdMu   sync.Mutex //madeusvet:lockrank bcon-herd 16
	herdCond *sync.Cond
}

// startPropagation launches Step 3. mts is the migration timestamp: the MLC
// value at the snapshot; the first commit to replay has ETS == mts. The
// number of players in flight is the LSIR wave size; nothing caps it.
func startPropagation(t *Tenant, dest Backend, strategy Strategy, mts uint64, trace *wire.TraceContext, progress chan<- struct{}) *propagator {
	p := &propagator{
		t:        t,
		dest:     dest,
		strategy: strategy,
		mts:      mts,
		trace:    trace,
		progress: progress,
		abort:    make(chan struct{}),
		done:     make(chan struct{}),
	}
	p.herdCond = sync.NewCond(&p.herdMu)
	go p.run()
	return p
}

// Err returns the propagation failure, if any.
func (p *propagator) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Stats returns the accumulated statistics.
func (p *propagator) Stats() PropagationStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.Syncsets = p.applied
	st.Ops = p.ops
	for _, g := range st.CommitGroups {
		if g > st.MaxGroup {
			st.MaxGroup = g
		}
	}
	return st
}

// snapshot reads the propagator's position in one consistent cut: syncsets
// linked to the SSL so far, syncsets applied on the slave, and the DEBT —
// how many syncsets the slave is behind by: linked syncsets that are
// eligible for full replay now but have not been applied. Syncsets whose
// commits the LSIR holds back (rule 1-b: a still-active master transaction
// with a stamped STS precedes them) are an irreducible floor, not debt —
// under sustained load that floor never reaches zero, so catch-up detection
// thresholds the debt, not the lag (linked - applied). The serial
// strategies replay in link order with no LSIR holds: their debt is the lag.
func (p *propagator) snapshot() (linked, applied, debt int) {
	t := p.t
	t.mu.Lock()
	linked = t.sslBase + len(t.ssl)
	bound := t.commitBoundLocked()
	p.mu.Lock()
	applied = p.applied
	p.mu.Unlock()
	t.mu.Unlock()
	// ETS values are contiguous from the MTS, so the number of linked
	// syncsets whose commits are below the bound is min(linked, bound-mts).
	flushable := linked
	if p.strategy != BAll && p.strategy != BMin && bound != ^uint64(0) && bound >= p.mts {
		flushable = min(linked, int(bound-p.mts))
	}
	return linked, applied, max(flushable-applied, 0)
}

// RequestStop asks the run loop to exit once the SSL is fully drained.
func (p *propagator) RequestStop() {
	p.mu.Lock()
	p.stopReq = true
	p.mu.Unlock()
	p.t.mu.Lock()
	p.t.cond.Broadcast()
	p.t.mu.Unlock()
}

// Abort cancels propagation immediately.
func (p *propagator) Abort() { p.fail(errAborted) }

// Wait blocks until the run loop exits and returns its error.
func (p *propagator) Wait() error {
	<-p.done
	return p.Err()
}

// fail records the propagation failure and cancels the run. It is called
// from several goroutines at once — the manager's Abort/RequestStop path,
// the run loop, and any player — so it must be idempotent and keep the
// error it records meaningful: the FIRST REAL error wins. errAborted is
// only a cancellation marker, so a real error arriving after an abort
// (the race between the manager's RequestStop/Abort and a player hitting
// the actual fault) replaces it — otherwise the Report's rollback reason
// would read "aborted" instead of what went wrong. The abort channel is
// closed under p.mu so `aborted == true ⇒ abort closed` holds atomically
// for stopRequested/isAborted readers.
func (p *propagator) fail(err error) {
	p.mu.Lock()
	if p.err == nil || (errors.Is(p.err, errAborted) && !errors.Is(err, errAborted)) {
		p.err = err
	}
	already := p.aborted
	p.aborted = true
	if !already {
		close(p.abort)
	}
	p.mu.Unlock()
	if !already {
		p.herdMu.Lock()
		p.herdCond.Broadcast()
		p.herdMu.Unlock()
		p.t.mu.Lock()
		p.t.cond.Broadcast()
		p.t.mu.Unlock()
	}
	p.signal()
}

// signal posts the coalescing progress token: a waiter that has not yet
// consumed the previous one loses nothing, it re-reads the state anyway.
func (p *propagator) signal() {
	select {
	case p.progress <- struct{}{}:
	default:
	}
}

func (p *propagator) stopRequested() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stopReq || p.aborted
}

func (p *propagator) markApplied(ops int) {
	p.mu.Lock()
	p.applied++
	p.ops += ops
	p.mu.Unlock()
	obsSyncsetsApplied.Inc()
	obsPropOps.Add(uint64(ops))
	p.signal()
}

func (p *propagator) noteGroup(n int) {
	p.mu.Lock()
	p.stats.CommitGroups = append(p.stats.CommitGroups, n)
	p.mu.Unlock()
	obsGroupSize.Observe(int64(n))
}

// --- connection pool ---

// getConn takes an idle pooled session, or dials one through connectRetry.
func (p *propagator) getConn() (*wire.Client, error) {
	p.poolMu.Lock()
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.poolMu.Unlock()
		return c, nil
	}
	p.poolMu.Unlock()
	return connectRetry(p.dest, p.t.Name, faultStep3Dial, p.trace)
}

// exec replays one statement on a destination connection through the
// step-3 failpoint: an injected conn-drop closes the socket so the Exec
// fails exactly like a vanished peer; other injected errors surface
// directly.
func (p *propagator) exec(conn *wire.Client, sql string) error {
	if ferr := fault.Inject(faultStep3Exec); ferr != nil {
		if !fault.IsConnDrop(ferr) {
			return ferr
		}
		_ = conn.Close()
	}
	_, err := conn.ExecReply(sql)
	return err
}

func (p *propagator) putConn(c *wire.Client) {
	p.poolMu.Lock()
	p.idle = append(p.idle, c)
	p.poolMu.Unlock()
}

func (p *propagator) closeConns() {
	p.poolMu.Lock()
	for _, c := range p.idle {
		c.Close()
	}
	p.idle = nil
	p.poolMu.Unlock()
}

// takeLinked pulls newly linked SSBs. When block is set and none are
// available it waits for ONE state change (SSL growth, active-set change,
// or stop) and returns — the caller re-evaluates with the fresh commit
// bound, so bound-only wakeups are never swallowed. It returns the new
// SSBs, the current commit bound, and whether a stop has been requested.
//
// The cursor is an absolute link index: the tenant may release the
// already-applied prefix (releaseAppliedSSL) between calls, so the
// retained slice is addressed at cursor-sslBase. A capture reset under an
// abort can only shrink the index space; the cursor clamps to it.
func (p *propagator) takeLinked(block bool) (news []*SSB, bound uint64, stopped bool) {
	t := p.t
	t.mu.Lock()
	defer t.mu.Unlock()
	total := t.sslBase + len(t.ssl)
	if p.cursor >= total && block && !p.stopRequested() {
		t.cond.Wait()
		total = t.sslBase + len(t.ssl)
	}
	if p.cursor > total {
		p.cursor = total
	}
	if p.cursor < total {
		start := p.cursor - t.sslBase
		if start < 0 {
			start = 0
		}
		news = append(news, t.ssl[start:]...)
		p.cursor = total
	}
	return news, t.commitBoundLocked(), p.stopRequested()
}

// run dispatches to the strategy-specific loop and cleans up.
func (p *propagator) run() {
	defer close(p.done)
	defer p.closeConns()
	var err error
	switch p.strategy {
	case BAll, BMin:
		err = p.runSerial()
	default:
		err = p.runConcurrent()
	}
	if err != nil {
		p.fail(err)
	}
}

// runSerial is the B-ALL / B-MIN loop: replay whole syncsets one at a time
// in commit (link) order over a single connection.
func (p *propagator) runSerial() error {
	conn, err := p.getConn()
	if err != nil {
		return err
	}
	defer conn.Close()
	for {
		news, _, stop := p.takeLinked(true)
		if stop && len(news) == 0 {
			return nil
		}
		for _, b := range news {
			if err := p.replaySerial(conn, b); err != nil {
				return err
			}
			p.markApplied(b.OpCount() + 1) // + BEGIN
		}
	}
}

func (p *propagator) replaySerial(conn *wire.Client, b *SSB) error {
	select {
	case <-p.abort:
		return errAborted
	default:
	}
	if err := p.exec(conn, "BEGIN"); err != nil {
		return fmt.Errorf("core: replay BEGIN: %w", err)
	}
	for _, e := range b.Entries {
		if err := p.exec(conn, e.SQL); err != nil {
			return fmt.Errorf("core: replay %q: %w", e.SQL, err)
		}
	}
	if err := p.exec(conn, "COMMIT"); err != nil {
		return fmt.Errorf("core: replay COMMIT: %w", err)
	}
	p.noteGroup(1)
	return nil
}

// --- concurrent propagation (Madeus and B-CON) ---

// runState is one in-flight syncset replay handled by a player goroutine.
type runState struct {
	b          *SSB
	firstDone  chan struct{}
	writesDone chan struct{}
	commitGo   chan struct{} // Madeus: closed by the conductor
	herdGo     bool          // B-CON: set under herdMu
	done       chan struct{}

	errMu sync.Mutex //madeusvet:lockrank player-err 18
	err   error
}

// setErr records the player's failure (first failure wins).
func (r *runState) setErr(err error) {
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
}

// Err returns the player's failure, if any.
func (r *runState) Err() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.err
}

// ssbHeap orders pending SSBs by STS (ties by ETS) for dispatch.
type ssbHeap []*SSB

func (h ssbHeap) Len() int { return len(h) }
func (h ssbHeap) Less(i, j int) bool {
	if h[i].STS != h[j].STS {
		return h[i].STS < h[j].STS
	}
	return h[i].ETS < h[j].ETS
}
func (h ssbHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *ssbHeap) Push(x any)   { *h = append(*h, x.(*SSB)) }
func (h *ssbHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h ssbHeap) peek() *SSB    { return h[0] }
func (h ssbHeap) empty() bool   { return len(h) == 0 }

// runConcurrent is the conductor of Algorithm 4, generalized to a streaming
// SSL. Invariants enforced (see the LSIR, Definition 3):
//
//   - a syncset's first read is dispatched only when every commit with
//     ETS < its STS has completed on the slave (rule 1-a): dispatch
//     eligibility is STS <= nextETS;
//   - a commit with ETS = e is propagated only after every first read with
//     STS <= e has completed (rule 1-b): commits flush contiguously from
//     nextETS, only below the commit bound (no unresolved master
//     transaction with a stamped STS <= e), and only after the wave's
//     first-read barrier;
//   - writes replay FIFO within each player (rule 2);
//   - commits eligible together flush concurrently — the slave group
//     commits them (Madeus) — or serially in ETS order through the
//     contended token (B-CON).
func (p *propagator) runConcurrent() error {
	var pending ssbHeap
	runs := make(map[uint64]*runState)
	nextETS := p.mts
	lastBound := uint64(0)

	for {
		eligible := !pending.empty() && pending.peek().STS <= nextETS
		_, flushCandidate := runs[nextETS]
		canFlush := flushCandidate && nextETS < lastBound
		news, bound, stopped := p.takeLinked(!eligible && !canFlush)
		lastBound = bound
		for _, b := range news {
			heap.Push(&pending, b)
		}
		if stopped && len(news) == 0 && pending.empty() && len(runs) == 0 {
			return nil
		}
		if stopped && len(news) == 0 && !(!pending.empty() && pending.peek().STS <= nextETS) && !flushCandidate && len(runs) == 0 {
			// Stop requested but ineligible syncsets remain: with the
			// gate closed and active transactions drained this cannot
			// happen (ETS values are contiguous); guard anyway.
			return fmt.Errorf("core: propagation stalled with %d undispatchable syncsets at ETS %d", pending.Len(), nextETS)
		}

		// Dispatch every eligible syncset (first reads of the wave).
		var wave []*runState
		for !pending.empty() && pending.peek().STS <= nextETS {
			b := heap.Pop(&pending).(*SSB)
			r := &runState{
				b:          b,
				firstDone:  make(chan struct{}),
				writesDone: make(chan struct{}),
				commitGo:   make(chan struct{}),
				done:       make(chan struct{}),
			}
			runs[b.ETS] = r
			wave = append(wave, r)
			go p.player(r)
		}
		// Barrier: all first operations of the wave propagated
		// (Algorithm 4, line 5).
		for _, r := range wave {
			<-r.firstDone
			if err := r.Err(); err != nil {
				return err
			}
		}

		// Flush commits contiguously from nextETS (Equation 1's batch).
		var batch []*runState
		for {
			r, ok := runs[nextETS]
			if !ok || r.b.ETS >= bound {
				break
			}
			<-r.writesDone
			if err := r.Err(); err != nil {
				return err
			}
			batch = append(batch, r)
			delete(runs, nextETS)
			nextETS++
		}
		if len(batch) > 0 {
			if err := p.flushCommits(batch); err != nil {
				return err
			}
		}
		if p.Err() != nil {
			return p.Err()
		}
	}
}

// flushCommits propagates one batch of commits. Madeus releases them all
// concurrently (the slave's WAL group commits them); B-CON walks them in
// master commit order through the thundering-herd token.
func (p *propagator) flushCommits(batch []*runState) error {
	if p.strategy == BCon {
		for _, r := range batch {
			p.herdMu.Lock()
			r.herdGo = true
			p.herdCond.Broadcast() // wake EVERY waiting player
			p.herdMu.Unlock()
			<-r.done
			if err := r.Err(); err != nil {
				return err
			}
			p.noteGroup(1)
			p.markApplied(r.b.OpCount() + 1)
		}
		return nil
	}
	for _, r := range batch {
		close(r.commitGo)
	}
	for _, r := range batch {
		<-r.done
		if err := r.Err(); err != nil {
			return err
		}
		p.markApplied(r.b.OpCount() + 1)
	}
	p.noteGroup(len(batch))
	return nil
}

// player replays one syncset on the slave (Algorithm 5): first operation,
// writes in FIFO order, then the commit when the conductor orders it.
func (p *propagator) player(r *runState) {
	obsPlayersActive.Inc()
	defer obsPlayersActive.Dec()
	firstClosed, writesClosed := false, false
	var conn *wire.Client
	defer func() {
		if !firstClosed {
			close(r.firstDone)
		}
		if !writesClosed {
			close(r.writesDone)
		}
		close(r.done)
		if conn != nil {
			if r.Err() == nil {
				p.putConn(conn)
			} else {
				conn.Close()
			}
		}
	}()

	conn, err := p.getConn()
	if err != nil {
		r.setErr(err)
		return
	}
	if err := p.exec(conn, "BEGIN"); err != nil {
		r.setErr(fmt.Errorf("core: player BEGIN: %w", err))
		return
	}
	if err := p.exec(conn, r.b.FirstOp().SQL); err != nil {
		r.setErr(fmt.Errorf("core: player first op %q: %w", r.b.FirstOp().SQL, err))
		return
	}
	close(r.firstDone)
	firstClosed = true

	for _, e := range r.b.Rest() {
		if err := p.exec(conn, e.SQL); err != nil {
			r.setErr(fmt.Errorf("core: player %q: %w", e.SQL, err))
			return
		}
	}
	close(r.writesDone)
	writesClosed = true

	// Wait for the commit order.
	if p.strategy == BCon {
		p.herdMu.Lock()
		for !r.herdGo && !p.isAborted() {
			p.herdCond.Wait()
			// Mutex competition: every woken player pays before
			// discovering whose turn it is. Burned while holding
			// herdMu, so the convoy serializes — the cost the paper
			// measured in B-CON's collapse.
			simlat.CPU(bconHerdSpin)
		}
		aborted := p.isAborted() && !r.herdGo
		p.herdMu.Unlock()
		if aborted {
			r.setErr(errAborted)
			return
		}
	} else {
		select {
		case <-r.commitGo:
		case <-p.abort:
			r.setErr(errAborted)
			return
		}
	}
	if err := p.exec(conn, "COMMIT"); err != nil {
		r.setErr(fmt.Errorf("core: player COMMIT: %w", err))
		return
	}
}

func (p *propagator) isAborted() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.aborted
}
