package core

import (
	"errors"
	"fmt"
	"sync"

	"madeus/internal/fault"
	"madeus/internal/lsir"
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
// and replays syncsets on the destination in the order its strategy's
// lsir.Scheduler decides.
type propagator struct {
	t     *Tenant
	dest  Backend
	sched *lsir.Scheduler // owned by the run loop; snapshot reads only Debt
	// herd is B-CON's cost model: concurrent players, commits released
	// one at a time (CON-FW without CON-COM), the players contending on
	// herdCond.
	herd bool

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
	caps := strategy.Capabilities()
	p := &propagator{
		t:        t,
		dest:     dest,
		sched:    lsir.NewScheduler(caps, mts),
		herd:     caps.ConFW && !caps.ConCom,
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
// linked to the SSL so far, syncsets applied on the slave, and the debt the
// scheduler counts (lsir.Scheduler.Debt): the syncsets the slave is behind
// by, not counting those whose commits the LSIR holds back behind a
// still-active master transaction. Catch-up detection thresholds the debt,
// not the lag (linked - applied).
func (p *propagator) snapshot() (linked, applied, debt int) {
	t := p.t
	t.mu.Lock()
	linked = t.sslBase + len(t.ssl)
	bound := t.commitBoundLocked()
	p.mu.Lock()
	applied = p.applied
	p.mu.Unlock()
	t.mu.Unlock()
	return linked, applied, p.sched.Debt(linked, applied, bound)
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

// run replays the SSL on the slave and cleans up.
func (p *propagator) run() {
	defer close(p.done)
	defer p.closeConns()
	if err := p.conduct(); err != nil {
		p.fail(err)
	}
}

// conduct is the conductor of Algorithm 4 over a streaming SSL. The
// scheduler makes every ordering decision (its doc comment states the LSIR
// invariants it keeps); conduct starts a player per dispatched syncset,
// completes each wave's first operations before it asks for the next
// commit group, as rule 1-b requires, and releases a group once its
// players' writes are done.
func (p *propagator) conduct() error {
	runs := make(map[uint64]*runState) // linked syncsets by slot, until released
	var wave []uint64
	var bound uint64
	for {
		news, b, stopped := p.takeLinked(!p.sched.Ready(bound))
		bound = b
		if err := p.Err(); err != nil {
			return err
		}
		for _, ssb := range news {
			runs[p.sched.Link(ssb.STS, ssb.ETS)] = &runState{
				b:          ssb,
				firstDone:  make(chan struct{}),
				writesDone: make(chan struct{}),
				commitGo:   make(chan struct{}),
				done:       make(chan struct{}),
			}
		}
		if stopped && len(news) == 0 && !p.sched.Ready(bound) {
			// With the gate closed and the active transactions
			// drained nothing is held back (ETS values are
			// contiguous); guard anyway.
			if n := p.sched.Pending(); n > 0 {
				return fmt.Errorf("core: propagation stalled with %d unreleased syncsets", n)
			}
			return nil
		}

		wave = p.sched.Dispatch(wave[:0])
		for _, slot := range wave {
			go p.player(runs[slot])
		}
		// Barrier: all first operations of the wave propagated
		// (Algorithm 4, line 5).
		for _, slot := range wave {
			r := runs[slot]
			<-r.firstDone
			if err := r.Err(); err != nil {
				return err
			}
		}

		first, n := p.sched.Release(bound)
		if n == 0 {
			continue
		}
		batch := make([]*runState, n)
		for i := range batch {
			slot := first + uint64(i)
			batch[i] = runs[slot]
			delete(runs, slot)
		}
		if err := p.flushCommits(batch); err != nil {
			return err
		}
	}
}

// runState is one in-flight syncset replay handled by a player goroutine.
type runState struct {
	b          *SSB
	firstDone  chan struct{}
	writesDone chan struct{}
	commitGo   chan struct{} // closed by the conductor (not B-CON)
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

// flushCommits propagates one commit group once its players' writes are
// done. With CON-COM the group's commits go at once (the slave's WAL group
// commits them); B-CON's groups of one go through the thundering-herd
// token.
func (p *propagator) flushCommits(batch []*runState) error {
	for _, r := range batch {
		<-r.writesDone
		if err := r.Err(); err != nil {
			return err
		}
	}
	for _, r := range batch {
		if p.herd {
			p.herdMu.Lock()
			r.herdGo = true
			p.herdCond.Broadcast() // wake EVERY waiting player
			p.herdMu.Unlock()
		} else {
			close(r.commitGo)
		}
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
	if p.herd {
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
