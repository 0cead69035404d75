package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"madeus/internal/flow"
	"madeus/internal/obs"
)

// Tenant is the middleware's per-tenant state: the tenant's current master
// node, the master logical clock, the critical region serializing first
// operations and commits inside the capture window (Algorithm 1), the
// syncset list, and the gates the manager uses during migration.
type Tenant struct {
	Name string

	// mu is the critical region of Algorithm 1: inside the capture window,
	// first operations and commits execute under it so that the STS/ETS
	// stamps of the syncsets Step 3 replays equal the snapshot/commit
	// ordering on the master (worker.master). It also guards all fields
	// below but the atomics.
	mu   sync.Mutex //madeusvet:lockrank tenant 20
	cond *sync.Cond // broadcast on: SSL growth, active-set changes, gate changes

	node Backend // current master node
	gen  int     // bumped at switch-over; sessions reconnect lazily

	// mlc is the master logical clock: one per committed update
	// transaction. Outside the capture window a commit advances it with no
	// lock held.
	mlc atomic.Uint64

	gate        bool // true: new transactions blocked (Step 1 drain, Step 4 switch-over)
	activeTxns  int  // transactions past BEGIN and not yet ended
	activeFirst map[*SSB]struct{}

	// capture is the capture window (captureOff, captureUpdates or
	// captureAll): from the Step-1 snapshot to the switch-over (or the
	// rollback), a transaction whose first operation runs gets an SSB, and
	// committed SSBs link to the SSL. Written only under mu
	// (startCaptureLocked, stopCapture); a worker loads it without mu to
	// decide whether to enter the critical region at all.
	capture atomic.Int32
	ssl     []*SSB // retained (linked, not yet released) SSBs in link order

	// SSL accounting for the flow layer's cap and gauges. ssl holds only
	// the retained window: once every propagator has applied a prefix, the
	// manager releases it (releaseAppliedSSL) and sslBase advances, so
	// absolute link index i lives at ssl[i-sslBase]. sslOps/sslBytes track
	// the retained window's footprint, which the manager's watchdog holds
	// against the attempt's byte cap — the link path itself never drops a
	// syncset, since a partial SSL would break the LSIR's contiguous-ETS
	// premise.
	sslBase  int
	sslOps   int
	sslBytes int64

	// flow wiring: throttle is the pacing brake Step 3's controller drives,
	// limiter the session admission gate.
	throttle flow.Throttle
	limiter  *flow.Limiter

	// phase names the migration step in flight ("" when idle) and prop is
	// the primary slave's propagator during Steps 3-4; both feed the
	// STATUS/STATS monitoring surfaces. A non-empty phase is also the
	// migration's claim on the tenant.
	phase string
	prop  *propagator

	// counters for reporting
	capturedOps  int
	capturedSSBs int

	// sessions feeds the tenant's sessions gauge. An atomic, not a t.mu
	// field: it moves on every connect/close, which does not belong
	// inside the critical region.
	sessions atomic.Int64
}

// NewTenant registers tenant state with its initial master node. gov may
// be nil (tests building tenants directly): backpressure is then fully
// disabled, matching a zero flow.Config.
func NewTenant(name string, node Backend, gov *flow.Governor) *Tenant {
	if gov == nil {
		gov, _ = flow.NewGovernor(flow.Config{})
	}
	t := &Tenant{Name: name, node: node, activeFirst: make(map[*SSB]struct{})}
	t.limiter = flow.NewLimiter(name, gov)
	t.cond = sync.NewCond(&t.mu)
	return t
}

// tenantMetricPrefix prefixes every per-tenant dynamic gauge, so one
// UnregisterPrefix call at teardown drops the whole family.
const tenantMetricPrefix = "core.tenant."

// registerObs publishes the tenant's dynamic gauges on the Default
// registry. Replace semantics (not New*) because remove/re-add cycles and
// multiple middleware instances in one test process are normal.
func (t *Tenant) registerObs() {
	prefix := tenantMetricPrefix + t.Name
	obs.Default.ReplaceGaugeFunc(prefix+".mlc", "tenant master logical clock", func() int64 {
		return int64(t.MLC())
	})
	obs.Default.ReplaceGaugeFunc(prefix+".sessions", "tenant customer sessions open", func() int64 {
		return t.sessions.Load()
	})
	obs.Default.ReplaceGaugeFunc(prefix+".ssl.depth", "tenant retained syncset-list depth", func() int64 {
		return int64(t.SSLLen())
	})
}

// teardownObs removes the tenant's dynamic gauges.
func (t *Tenant) teardownObs() {
	obs.Default.UnregisterPrefix(tenantMetricPrefix + t.Name + ".")
}

// TenantState classifies a tenant's service mode.
type TenantState int

const (
	// StateNormal: single-master service, no migration machinery active.
	StateNormal TenantState = iota
	// StateMigrating: a migration holds the tenant in any of Steps 1-4 —
	// capture is linking syncsets, a step phase is published, or the
	// gate is closed.
	StateMigrating
)

func (s TenantState) String() string {
	if s == StateMigrating {
		return "migrating"
	}
	return "normal"
}

// State reports whether the tenant is in normal single-master service or
// mid-migration. After a rollback it must report StateNormal again: the
// chaos suite pins that every fail path clears capture, phase, and gate.
func (t *Tenant) State() TenantState {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.capture.Load() != captureOff || t.phase != "" || t.gate {
		return StateMigrating
	}
	return StateNormal
}

// Node returns the tenant's current master node and routing generation.
func (t *Tenant) Node() (Backend, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.node, t.gen
}

// MLC returns the current master logical clock (for tests and monitoring).
func (t *Tenant) MLC() uint64 { return t.mlc.Load() }

// waitGateLocked blocks while the manager has new transactions gated.
// Caller holds t.mu.
func (t *Tenant) waitGateLocked() {
	for t.gate {
		t.cond.Wait()
	}
}

// txnStarted registers an in-flight transaction, honoring the gate. Time
// spent blocked at a closed gate is the per-transaction share of the
// paper's suspension blips (Fig 7's dips at migration start and end), so it
// is observed; the open-gate fast path pays no clock read.
func (t *Tenant) txnStarted() {
	obsWorkerTxns.Inc()
	t.mu.Lock()
	if t.gate {
		start := time.Now()
		t.waitGateLocked()
		obsGateWait.ObserveDuration(time.Since(start))
	}
	t.activeTxns++
	t.mu.Unlock()
}

// txnEnded unregisters an in-flight transaction.
func (t *Tenant) txnEnded() {
	t.mu.Lock()
	t.activeTxns--
	t.cond.Broadcast()
	t.mu.Unlock()
}

// firstOpStamped records that a transaction's first operation was stamped
// (its SSB now constrains the commit bound until it resolves). Caller holds
// t.mu (the critical region).
func (t *Tenant) firstOpStampedLocked(b *SSB) {
	t.activeFirst[b] = struct{}{}
}

// resolveSSBLocked removes an SSB from the active set (commit, abort, or
// read-only discard) and, when committing during migration, links it to the
// SSL. Caller holds t.mu.
func (t *Tenant) resolveSSBLocked(b *SSB, link bool) {
	delete(t.activeFirst, b)
	if link && t.capture.Load() != captureOff {
		t.ssl = append(t.ssl, b)
		t.capturedSSBs++
		t.capturedOps += b.OpCount()
		t.sslOps += b.OpCount()
		t.sslBytes += b.MemSize()
		obsSSBLinked.Inc()
		flow.AccountSSL(b.OpCount(), b.MemSize())
	}
	t.cond.Broadcast()
}

// resetSSLLocked empties the SSL and returns its accounting to the flow
// gauges — the single path capture start/stop, discard, and rollback all
// share, so the depth and the byte/op gauges can never go stale at 0-debt
// idle. Caller holds t.mu.
func (t *Tenant) resetSSLLocked() {
	flow.AccountSSL(-t.sslOps, -t.sslBytes)
	t.ssl = nil
	t.sslBase = 0
	t.sslOps = 0
	t.sslBytes = 0
}

// retainedSSLBytes reports the retained window's accounted footprint, the
// sample the manager's watchdog holds against the byte cap.
func (t *Tenant) retainedSSLBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sslBytes
}

// releaseAppliedSSL frees the SSL prefix below absolute link index upto:
// every propagator has applied it, so nothing will read it again. The
// retained window shifts into a fresh slice (letting the GC take the
// replayed SSBs) and the accounting follows, which is what keeps SSL
// memory bounded while pacing holds debt near the target.
func (t *Tenant) releaseAppliedSSL(upto int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if upto <= t.sslBase || t.capture.Load() == captureOff {
		return
	}
	n := upto - t.sslBase
	if n > len(t.ssl) {
		n = len(t.ssl)
	}
	var ops int
	var bytes int64
	for _, b := range t.ssl[:n] {
		ops += b.OpCount()
		bytes += b.MemSize()
	}
	t.ssl = append([]*SSB(nil), t.ssl[n:]...)
	t.sslBase += n
	t.sslOps -= ops
	t.sslBytes -= bytes
	flow.AccountSSL(-ops, -bytes)
}

// commitBound returns the exclusive upper bound on ETS values whose commits
// may be propagated: no unresolved transaction with a stamped first
// operation may have STS ≤ a propagated commit's ETS (LSIR rule 1-b — the
// slave must execute that first read before those commits). Caller holds
// t.mu.
func (t *Tenant) commitBoundLocked() uint64 {
	bound := ^uint64(0)
	for b := range t.activeFirst {
		if b.STS < bound {
			bound = b.STS
		}
	}
	return bound
}

// claimMigration admits one migration of the tenant to slaves (slaves[0]
// the destination, the rest backups) and returns its source. Under one
// t.mu hold it refuses a tenant that already lives on a slave or is
// already migrating, then claims it by publishing Step 1 as its phase.
// Capture does not open here: it opens at the snapshot (startCaptureLocked).
func (t *Tenant) claimMigration(slaves []Backend) (Backend, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	source := t.node
	if slaves[0] == source {
		return nil, fmt.Errorf("core: tenant %q is already on node %q", t.Name, source.BackendName())
	}
	for _, sl := range slaves[1:] {
		if sl == source || sl == slaves[0] {
			return nil, fmt.Errorf("core: backup node %q duplicates the source or destination", sl.BackendName())
		}
	}
	if t.phase != "" {
		return nil, fmt.Errorf("core: tenant %q is already migrating", t.Name)
	}
	t.phase = "step1.snapshot"
	return source, nil
}

// Capture window states (Tenant.capture).
const (
	captureOff     int32 = iota // no window: workers stamp nothing and relay lock-free
	captureUpdates              // update transactions' syncsets link to the SSL
	captureAll                  // B-ALL: read-only transactions and autocommit reads too
)

// startCaptureLocked opens the capture window in state (captureUpdates or
// captureAll): from here on a transaction's first operation builds an SSB,
// and committed SSBs link to the SSL. The manager calls it inside the
// snapshot's critical region, with every earlier transaction drained, so
// the SSL starts exactly at the MTS. t.mu must be held.
func (t *Tenant) startCaptureLocked(state int32) {
	t.capture.Store(state)
	t.resetSSLLocked()
	t.capturedOps = 0
	t.capturedSSBs = 0
}

// stopCapture stops linking and clears the SSL (returning its accounting,
// so the depth/op/byte gauges read 0 after both switch-over and rollback).
func (t *Tenant) stopCapture() {
	t.mu.Lock()
	t.capture.Store(captureOff)
	t.resetSSLLocked()
	t.cond.Broadcast()
	t.mu.Unlock()
}

// setGate opens or closes the new-transaction gate.
func (t *Tenant) setGate(closed bool) {
	t.mu.Lock()
	t.gate = closed
	t.cond.Broadcast()
	t.mu.Unlock()
}

// drainActive waits until no transactions are in flight. Call with the gate
// closed, or it may never terminate under load.
func (t *Tenant) drainActive() {
	t.mu.Lock()
	for t.activeTxns > 0 {
		t.cond.Wait()
	}
	t.mu.Unlock()
}

// switchOver repoints the tenant at the destination node and bumps the
// routing generation so proxy sessions reconnect.
func (t *Tenant) switchOver(dest Backend) {
	t.mu.Lock()
	t.node = dest
	t.gen++
	t.mu.Unlock()
}

// rebind repoints the tenant at a restarted node handle carrying the same
// backend name (Middleware.ReplaceNode). Reports whether the tenant was
// mastered on that node.
func (t *Tenant) rebind(n Backend) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.node.BackendName() != n.BackendName() {
		return false
	}
	t.node = n
	t.gen++
	t.cond.Broadcast()
	return true
}

// setProgress publishes the migration step in flight and the primary
// slave's propagator (nil outside Steps 3-4) for the monitoring surfaces.
func (t *Tenant) setProgress(phase string, p *propagator) {
	t.mu.Lock()
	t.phase = phase
	t.prop = p
	t.mu.Unlock()
}

// Progress reports the migration step in flight ("idle" when none) and,
// during propagation, the primary slave's lag and debt.
func (t *Tenant) Progress() (phase string, lag, debt int) {
	t.mu.Lock()
	phase = t.phase
	p := t.prop
	t.mu.Unlock()
	if phase == "" {
		phase = "idle"
	}
	// snapshot re-acquires t.mu, so it must be called after the unlock.
	if p != nil {
		linked, applied, d := p.snapshot()
		lag, debt = linked-applied, d
	}
	return phase, lag, debt
}

// TenantMonitor is one tenant's live monitoring row (the STATS <tenant>
// admin view).
type TenantMonitor struct {
	Node         string
	MLC          uint64
	Phase        string
	Lag          int
	Debt         int
	SSLDepth     int
	SSLBytes     int64
	PaceDelay    time.Duration
	ActiveTxns   int
	CapturedSSBs int
	CapturedOps  int
}

// Monitor snapshots the tenant's live state.
func (t *Tenant) Monitor() TenantMonitor {
	t.mu.Lock()
	m := TenantMonitor{
		Node:         t.node.BackendName(),
		MLC:          t.mlc.Load(),
		SSLDepth:     len(t.ssl),
		SSLBytes:     t.sslBytes,
		ActiveTxns:   t.activeTxns,
		CapturedSSBs: t.capturedSSBs,
		CapturedOps:  t.capturedOps,
	}
	t.mu.Unlock()
	m.PaceDelay = t.throttle.Delay()
	m.Phase, m.Lag, m.Debt = t.Progress()
	return m
}

// SSLLen reports the retained syncset-list length (monitoring).
func (t *Tenant) SSLLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ssl)
}
