package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"madeus/internal/fault"
	"madeus/internal/flow"
	"madeus/internal/obs"
	"madeus/internal/wire"
)

// Migration-step failpoint sites (armed only under -tags faultinject).
// Together with the propagator's sites (conductor.go) they cover every
// step of Algorithm 3 against the destination.
const (
	faultStep1Dump      = "core.step1.dump"
	faultStep2Restore   = "core.step2.restore"
	faultRestoreDial    = "core.restore.dial"
	faultStep3Propagate = "core.step3.propagate"
	faultStep4Switch    = "core.step4.switchover"
)

// ErrCatchupTimeout reports that the slave could not catch up with the
// master within the configured window — the condition the paper reports as
// "N/A" for B-CON under heavy workload (Sec 5.3.2).
var ErrCatchupTimeout = errors.New("core: slave could not catch up with the master")

// Limits every migration applies to its destination operations, and the
// B-CON cost model's constant.
const (
	// destOpTimeout bounds every middleware-issued operation against the
	// destination (restore replay, propagation, the promotion probe) so a
	// hung slave surfaces as a connection loss instead of parking the
	// migration forever.
	destOpTimeout = 10 * time.Second
	// bconHerdSpin models the pthread mutex competition the paper blames
	// for B-CON's collapse: "all players compete for the pthread mutex lock
	// at every commit time" (Sec 5.3.2). Every waiting B-CON player burns
	// this much CPU at every commit wake-up, so the per-commit cost grows
	// with the number of in-flight players — the convoy that makes B-CON
	// worse than B-ALL under load.
	bconHerdSpin = 2 * time.Millisecond
)

// Destination dial retries (connectRetry): 4 attempts, the pause before
// retry n being min(25ms·2^(n-1), 500ms) with ±20% jitter, so a herd of
// players redialing one slave does not reconnect in lockstep.
const (
	dialAttempts   = 4
	dialBackoff    = 25 * time.Millisecond
	dialMaxBackoff = 500 * time.Millisecond
	dialJitter     = 0.2
)

// retrySleep is connectRetry's pause; tests substitute a recorder.
var retrySleep = time.Sleep

// dialPause returns the jittered pause before dial retry n (1-based).
func dialPause(n int) time.Duration {
	d := min(dialBackoff<<(n-1), dialMaxBackoff)
	return d + time.Duration((rand.Float64()*2-1)*dialJitter*float64(d))
}

// MigrateOptions is what differs between two migrations. Everything else —
// the catch-up window, the deadline, the stall window, pacing — is a
// middleware-wide setting (Options, or flow.Config retuned by FLOW SET)
// that Migrate snapshots once per attempt.
type MigrateOptions struct {
	// Strategy selects the propagation protocol. Default Madeus.
	Strategy Strategy
	// Backups are additional destination nodes that receive the snapshot
	// and the syncset stream in parallel (Sec 4.2: "Madeus can propagate
	// syncsets to multiple slaves at the same time. If a slave fails,
	// Madeus discards the slave and continues to propagate the remaining
	// syncsets to the others."). If the primary destination fails during
	// migration, the first surviving backup is promoted and receives the
	// switch-over.
	Backups []string
	// KeepSource leaves the source copy in place after switch-over
	// (used by consistency tests to compare master and slave states).
	KeepSource bool
}

// migSpanSeq assigns each migration attempt a process-unique span id.
var migSpanSeq atomic.Uint64

// Report describes a completed (or failed) migration.
type Report struct {
	Tenant   string
	Source   string
	Dest     string
	Strategy Strategy

	Start time.Time
	End   time.Time

	// Step durations (Sec 4.3's Steps 1-4).
	DrainTime     time.Duration // Step 1: quiescing in-flight transactions
	SnapshotTime  time.Duration // Step 1: dump transaction
	RestoreTime   time.Duration // Step 2: creating the slave
	PropagateTime time.Duration // Step 3: syncset propagation until caught up
	SwitchTime    time.Duration // Step 4: final drain + switch-over

	// MTS is the migration timestamp: the MLC at the snapshot.
	MTS uint64

	// Span is the middleware-assigned id of this migration attempt: the
	// wire trace context carries it, so dbnode-side events stamped with
	// the same span are THIS attempt's work (a retried migration gets a
	// fresh span under the same tenant).
	Span uint64

	// SuspensionWindow is the Step-4 interval during which new customer
	// transactions were gated (suspend → drain → switch → resume): the
	// paper's service-suspension metric, Fig 7's terminal dip. It is the
	// sum of its four parts: waiting out the active transactions,
	// propagating the last syncsets, the promotion probe's round trip, and
	// the route flip that reopens the gate.
	SuspensionWindow time.Duration
	SuspendDrain     time.Duration
	SuspendPropagate time.Duration
	SuspendProbe     time.Duration
	SuspendFlip      time.Duration

	// GCCPU and GCCycles are the garbage collector's CPU time and its
	// completed cycles over the attempt: runtime/metrics deltas of
	// /cpu/classes/gc/total:cpu-seconds and /gc/cycles/total:gc-cycles.
	// Both are process-wide estimates, updated when a GC cycle ends: they
	// count the collection work of everything in the process, not this
	// migration's alone, and a cycle still running when the attempt ends
	// is not in them.
	GCCPU    time.Duration
	GCCycles uint64

	// Chunks and PeakTransferBytes describe the pipelined Step-1 stream:
	// how many chunks the snapshot shipped in and the high-water mark of
	// resident transfer memory (bounded by flow.Config.MaxTransferBytes).
	Chunks            int
	PeakTransferBytes int64

	Propagation PropagationStats

	// Timeline is the migration's event trace (Step 1-4 spans, lag/debt
	// samples, discards) as recorded by obs.Trace; benchrunner prints it
	// for Fig 7/8 runs.
	Timeline []obs.Event

	// Discarded lists slaves dropped mid-migration after a failure
	// (multi-slave migrations only).
	Discarded []string

	// Failed is set when the migration aborted (service continues on the
	// source); Err carries the cause.
	Failed bool
	Err    error

	// RollbackStep and RollbackReason record where a failed migration
	// rolled back ("step1.snapshot" ... "step4.switchover") and why.
	// Empty on success. After a rollback the tenant is back in normal
	// single-master service on the source and re-migratable (a retry
	// takes a fresh snapshot with a fresh MTS).
	RollbackStep   string
	RollbackReason string
}

// Total is the end-to-end migration time (the y-axis of Fig 6).
func (r *Report) Total() time.Duration { return r.End.Sub(r.Start) }

// Migrate live-migrates a tenant to the destination node (Algorithm 3):
//
//	Step 1  create a snapshot of the master (after draining in-flight
//	        transactions so no transaction spans the snapshot cut — see
//	        DESIGN.md on LSIR rule 1-b vs. snapshot-internal commits)
//	Step 2  create the slave from the snapshot
//	Step 3  propagate syncsets per the strategy until the slave catches up
//	Step 4  suspend, drain the last syncsets, switch over, resume
//
// Customer transactions keep executing on the master through Steps 1-3; the
// only stalls are the two short drains, which is what Figures 7/8 show as
// latency blips at migration start and end.
func (m *Middleware) Migrate(tenantName, destName string, opts MigrateOptions) (*Report, error) {
	t, ok := m.Tenant(tenantName)
	if !ok {
		return nil, fmt.Errorf("core: unknown tenant %q", tenantName)
	}
	dest, ok := m.Node(destName)
	if !ok {
		return nil, fmt.Errorf("core: unknown node %q", destName)
	}
	// slaves[0] is the primary destination; the rest are backups.
	slaves := []Backend{dest}
	for _, b := range opts.Backups {
		bn, ok := m.Node(b)
		if !ok {
			return nil, fmt.Errorf("core: unknown backup node %q", b)
		}
		slaves = append(slaves, bn)
	}
	// The claim is the attempt's first side effect: one check-and-set that
	// also reads the source, so two concurrent Migrates on one tenant can
	// never both run, and neither can act on a source the other moved.
	// Capture starts with it, before the snapshot, so operations racing the
	// dump are saved (Step 1: "Madeus saves the operations as a syncset").
	source, err := t.claimMigration(slaves, opts.Strategy.captureAll())
	if err != nil {
		return nil, err
	}
	// Flow-layer knobs: one config snapshot governs the whole attempt, so
	// a concurrent FLOW SET cannot change the rules mid-migration; it
	// governs the next attempt.
	fcfg := m.flow.Config()

	rep := &Report{
		Tenant:   tenantName,
		Source:   source.BackendName(),
		Dest:     destName,
		Strategy: opts.Strategy,
		Start:    time.Now(),
	}
	gc0 := readGC()

	// Bookmark the tracer so the report's Timeline carries exactly this
	// migration's events.
	seq0 := obs.Trace.Seq()
	rep.Span = migSpanSeq.Add(1)
	obsMigStarted.Inc()
	obs.Trace.Emit(tenantName, "migrate.begin",
		obs.F("source", rep.Source), obs.F("dest", destName),
		obs.F("strategy", opts.Strategy), obs.F("span", rep.Span))

	// Whatever way this attempt ends, the pacing brake comes off: a rolled
	// back or completed migration must never leave the tenant throttled.
	defer t.throttle.Set(0)

	// fail is the rollback path: whatever step died, the tenant returns
	// to normal single-master service on the source — capture stops and
	// the SSL is discarded, the gate reopens so customers resume
	// immediately, and the partially-built slaves are dropped. Nothing
	// about the source changed (the dump transaction only reads), so the
	// system is left re-migratable: a retry starts from Step 1 with a
	// fresh snapshot and a fresh MTS.
	fail := func(step string, err error) (*Report, error) {
		t.stopCapture()
		t.setGate(false)
		t.setProgress("", nil)
		rep.Failed = true
		rep.Err = err
		rep.RollbackStep = step
		rep.RollbackReason = err.Error()
		rep.End = time.Now()
		rep.GCCPU, rep.GCCycles = gc0.since()
		obsMigFailed.Inc()
		obsMigRollbacks.Inc()
		obs.Trace.Emit(tenantName, "migrate.rollback", obs.F("step", step), obs.F("err", err))
		rep.Timeline = obs.Trace.Since(seq0, tenantName)
		// Freeze the flight-recorder bundle AFTER the timeline so the
		// bundle's event tail includes the rollback event itself.
		m.captureFlight(t, rep, step, err)
		// Discard the partial slaves, if any.
		for _, sl := range slaves {
			dropDatabase(sl, tenantName)
		}
		return rep, err
	}

	// --- Step 1: create a snapshot ---
	t.setProgress("step1.snapshot", nil)
	phase := time.Now()
	drainSpan := obs.Trace.Start(tenantName, "step1.drain")
	t.setGate(true)
	t.drainActive()
	drainSpan.End()
	rep.DrainTime = time.Since(phase)

	ctl, err := source.Connect(tenantName)
	if err != nil {
		return fail("step1.snapshot", err)
	}
	defer ctl.Close()
	if _, err := ctl.Exec("BEGIN"); err != nil {
		return fail("step1.snapshot", err)
	}
	phase = time.Now()
	dumpSpan := obs.Trace.Start(tenantName, "step1.dump")
	// Critical region: no commits or first operations execute while the
	// dump transaction pins its snapshot and the MTS is recorded
	// (Algorithm 3, lines 1-5), so the SNAPSHOT round trip runs under the
	// tenant mutex by design.
	t.mu.Lock()
	_, err = ctl.Exec("SNAPSHOT")
	mts := t.mlc
	t.resetSSLLocked() // everything committed so far is inside the snapshot
	t.mu.Unlock()
	if err != nil {
		return fail("step1.snapshot", err)
	}
	rep.MTS = mts
	obs.Trace.Emit(tenantName, "step1.mts", obs.F("mts", mts), obs.F("span", rep.Span))
	// Cross-process trace context: from here on, every operation the
	// migration itself issues — the dump stream on this control session,
	// restores, propagation replays, the promotion probe — carries the
	// migration's MTS and span, so dbnode-side wire events are attributable
	// to this attempt.
	trace := &wire.TraceContext{Tenant: tenantName, MTS: mts, Span: rep.Span}
	ctl.SetTraceContext(trace)
	t.setGate(false) // customers resume while the dump streams

	if ferr := fault.Inject(faultStep1Dump); ferr != nil {
		return fail("step1.snapshot", ferr)
	}

	// Steps 1 and 2 overlap: dump, transfer, and restore run as a
	// three-stage pipeline whose resident transfer memory is capped by the
	// flow layer's budget (see step1.go).
	t.setProgress("step2.restore", nil)
	restoreSpan := obs.Trace.Start(tenantName, "step2.restore")
	budget := flow.NewTransferBudget(fcfg.MaxTransferBytes)
	pr := pipelineSnapshot(ctl, tenantName, slaves, m.dumpChunk, trace, budget)
	rep.SnapshotTime = pr.dumpTime
	rep.RestoreTime = time.Since(phase)
	rep.Chunks = pr.chunks
	rep.PeakTransferBytes = pr.peakBytes
	dumpSpan.End(obs.F("chunks", pr.chunks), obs.F("stmts", pr.stmts),
		obs.F("peakBytes", pr.peakBytes))
	if pr.streamErr != nil {
		restoreSpan.End(obs.F("err", pr.streamErr))
		return fail("step1.snapshot", pr.streamErr)
	}
	restoreFailed := pr.slaveErr
	restoreSpan.End(obs.F("slaves", len(slaves)-len(restoreFailed)))
	if len(restoreFailed) > 0 {
		// A failed restore discards that slave; survivors carry the
		// migration (the paper's Sec 4.2 discard rule applied to
		// Step 2). Only when no slave survived does the whole
		// migration roll back.
		var restoreErr error
		live := slaves[:0]
		for _, sl := range slaves {
			if err, failed := restoreFailed[sl]; failed {
				restoreErr = err
				dropDatabase(sl, tenantName)
				rep.Discarded = append(rep.Discarded, sl.BackendName())
				obs.Trace.Emit(tenantName, "step2.slave.discarded",
					obs.F("slave", sl.BackendName()), obs.F("err", err))
				continue
			}
			live = append(live, sl)
		}
		slaves = live
		if len(slaves) == 0 {
			return fail("step2.restore", restoreErr)
		}
	}

	// --- Step 3: propagate syncsets (one propagator per slave) ---
	phase = time.Now()
	propSpan := obs.Trace.Start(tenantName, "step3.propagate")
	// Every propagator posts to progress when it applies a syncset or
	// fails: the wait below is driven by what the slaves do, not by a clock.
	progress := make(chan struct{}, 1)
	props := make(map[Backend]*propagator, len(slaves))
	for _, sl := range slaves {
		props[sl] = startPropagation(t, sl, opts.Strategy, mts, trace, progress)
		obs.Trace.Emit(tenantName, "step3.slave.begin", obs.F("slave", sl.BackendName()))
	}
	t.setProgress("step3.propagate", props[slaves[0]])
	abortAll := func() {
		for _, p := range props {
			p.Abort()
			p.Wait()
		}
	}
	// discardFailed drops slaves whose propagator died; the survivors
	// keep going. Returns the surviving slave list.
	discardFailed := func() {
		live := slaves[:0]
		for _, sl := range slaves {
			p := props[sl]
			if err := p.Err(); err != nil {
				p.Abort()
				p.Wait()
				delete(props, sl)
				dropDatabase(sl, tenantName)
				rep.Discarded = append(rep.Discarded, sl.BackendName())
				obs.Trace.Emit(tenantName, "step3.slave.discarded",
					obs.F("slave", sl.BackendName()), obs.F("err", err))
				continue
			}
			live = append(live, sl)
		}
		slaves = live
	}
	failProp := func(err error) (*Report, error) {
		abortAll()
		rep.PropagateTime = time.Since(phase)
		return fail("step3.propagate", err)
	}
	// Caught up is the catchup rule over the promotion candidate's
	// (slaves[0]'s) progress, evaluated at every wake-up. Flow control for
	// the catch-up race runs on the ticker: the controller paces the source
	// when debt diverges, and the applied SSL prefix is released as every
	// slave clears it so the capture buffer's memory follows the debt, not
	// the total writes since the snapshot. The watchdog (deadline + stall)
	// is consulted at every wake-up; a hung slave posts no progress, so the
	// ticker is what guarantees it a hearing.
	const sampleEvery = 200 * time.Millisecond
	caughtUp := catchup{lag: m.catchupDebt}
	ticker := time.NewTicker(sampleEvery)
	defer ticker.Stop()
	timeout := time.NewTimer(m.opts.CatchupTimeout)
	defer timeout.Stop()
	ctrl := flow.NewController(fcfg)
	wd := flow.NewWatchdog(fcfg, rep.Start)
	var lastDelay time.Duration
	for sample := true; ; {
		if ferr := fault.Inject(faultStep3Propagate); ferr != nil {
			return failProp(ferr)
		}
		nSlaves := len(slaves)
		discardFailed()
		if len(slaves) == 0 {
			return failProp(fmt.Errorf("core: every slave failed during propagation"))
		}
		primary := props[slaves[0]]
		if len(slaves) != nSlaves {
			// The promotion candidate may have changed; repoint the
			// monitoring surface at the new primary.
			t.setProgress("step3.propagate", primary)
		}
		linked, applied, debt := primary.snapshot()
		now := time.Now()
		wd.Observe(applied, debt, now)
		if err := wd.Check(now); err != nil {
			return failProp(err)
		}
		if t.sslOverflow() {
			return failProp(fmt.Errorf("core: SSL byte cap breached with debt %d: %w", debt, flow.ErrSSLOverflow))
		}
		if sample {
			// Release the SSL prefix every propagator has applied.
			release := applied
			for _, p := range props {
				if _, a, _ := p.snapshot(); a < release {
					release = a
				}
			}
			if release > 0 {
				t.releaseAppliedSSL(release)
			}
			if delay := ctrl.Tick(debt); delay != lastDelay {
				lastDelay = delay
				t.throttle.Set(delay)
				obs.Trace.Emit(tenantName, "flow.pace",
					obs.F("delay", delay), obs.F("debt", debt))
			}
			obs.Trace.Emit(tenantName, "step3.sample",
				obs.F("lag", linked-applied), obs.F("debt", debt),
				obs.F("ssl", linked), obs.F("applied", applied))
		}
		if caughtUp.observe(linked, applied, debt) {
			break
		}
		select {
		case <-progress:
			sample = false
		case <-ticker.C:
			sample = true
		case <-timeout.C:
			return failProp(ErrCatchupTimeout)
		}
	}
	// The brake comes off before the final drain: Step 4 wants the last
	// commits through as fast as possible.
	t.throttle.Set(0)
	rep.PropagateTime = time.Since(phase)
	propSpan.End(obs.F("syncsets", props[slaves[0]].Stats().Syncsets))

	// --- Step 4: switch over ---
	t.setProgress("step4.switchover", props[slaves[0]])
	phase = time.Now()
	switchSpan := obs.Trace.Start(tenantName, "step4.switchover")
	suspendStart := time.Now()
	t.setGate(true)
	t.drainActive()
	drained := time.Now()
	for _, p := range props {
		p.RequestStop()
	}
	for _, sl := range slaves {
		props[sl].Wait() //nolint:errcheck // judged via discardFailed below
	}
	discardFailed()
	propagated := time.Now()
	// All-or-nothing switch-over: a candidate is promoted only once it
	// ACKS promotion — a fresh session must round-trip a probe
	// transaction. A candidate that fails the probe is discarded and the
	// next surviving slave is tried; if none acks, the migration rolls
	// back, the gate reopens on the source, and the customers gated
	// during the drain resume there without ever observing an error.
	var target Backend
	for len(slaves) > 0 {
		cand := slaves[0]
		if err := probePromotion(cand, tenantName, trace); err != nil {
			dropDatabase(cand, tenantName)
			rep.Discarded = append(rep.Discarded, cand.BackendName())
			obs.Trace.Emit(tenantName, "step4.candidate.discarded",
				obs.F("slave", cand.BackendName()), obs.F("err", err))
			slaves = slaves[1:]
			continue
		}
		target = cand
		break
	}
	if target == nil {
		return fail("step4.switchover", fmt.Errorf("core: no slave acknowledged promotion"))
	}
	probed := time.Now()
	promoted := target.BackendName() != destName
	rep.Propagation = props[target].Stats()
	t.switchOver(target)
	t.stopCapture()
	t.setGate(false)
	rep.End = time.Now()
	rep.GCCPU, rep.GCCycles = gc0.since()
	rep.SuspendDrain = drained.Sub(suspendStart)
	rep.SuspendPropagate = propagated.Sub(drained)
	rep.SuspendProbe = probed.Sub(propagated)
	rep.SuspendFlip = rep.End.Sub(probed)
	rep.SuspensionWindow = rep.End.Sub(suspendStart)
	rep.SwitchTime = rep.End.Sub(phase)
	rep.Dest = target.BackendName()
	switchSpan.End(
		obs.F("suspension", rep.SuspensionWindow),
		obs.F("drain", rep.SuspendDrain), obs.F("propagate", rep.SuspendPropagate),
		obs.F("probe", rep.SuspendProbe), obs.F("flip", rep.SuspendFlip),
		obs.F("dest", rep.Dest), obs.F("promoted", promoted))
	t.setProgress("", nil)
	obsMigCompleted.Inc()
	obs.Trace.Emit(tenantName, "migrate.end",
		obs.F("total", rep.Total()), obs.F("syncsets", rep.Propagation.Syncsets),
		obs.F("gc_cpu", rep.GCCPU), obs.F("gc_cycles", rep.GCCycles))
	rep.Timeline = obs.Trace.Since(seq0, tenantName)

	if !opts.KeepSource {
		dropDatabase(source, tenantName)
	}
	// Extra synchronized slaves beyond the promoted one are dropped; a
	// production deployment could instead keep them as warm replicas.
	for _, sl := range slaves[1:] {
		dropDatabase(sl, tenantName)
	}
	return rep, nil
}

// probePromotion asks a switch-over candidate to acknowledge promotion:
// a fresh session must round-trip an empty probe transaction. Until the
// ack arrives nothing is committed — the tenant still points at the
// source — which is what makes Step 4 all-or-nothing.
func probePromotion(sl Backend, tenant string, trace *wire.TraceContext) error {
	if ferr := fault.Inject(faultStep4Switch); ferr != nil {
		return ferr
	}
	c, err := connectRetry(sl, tenant, "", trace)
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := c.ExecReply("BEGIN"); err != nil {
		return err
	}
	if _, err := c.ExecReply("COMMIT"); err != nil {
		return err
	}
	return nil
}

// connectRetry dials a tenant session on node, the one way every migration
// destination session is opened: transient failures (transport losses,
// injected faults at the optional failpoint site) back off and redial up to
// dialAttempts times; server-reported errors fail fast. The session carries
// destOpTimeout and the attempt's trace context (nil: plain frames).
func connectRetry(node Backend, tenant, site string, trace *wire.TraceContext) (*wire.Client, error) {
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			retrySleep(dialPause(attempt))
			obsMigRetries.Inc()
		}
		if site != "" {
			if ferr := fault.Inject(site); ferr != nil {
				lastErr = ferr
				if transientErr(ferr) {
					continue
				}
				return nil, ferr
			}
		}
		c, err := node.Connect(tenant)
		if err == nil {
			c.SetOpTimeout(destOpTimeout)
			c.SetTraceContext(trace)
			return c, nil
		}
		lastErr = err
		if !transientErr(err) {
			return nil, err
		}
	}
	return nil, lastErr
}

// transientErr reports whether a destination failure is worth retrying:
// transport losses and injected faults, never server-reported statement
// errors.
func transientErr(err error) bool {
	return wire.IsTransportError(err) || fault.IsInjected(err)
}

// dropDatabase best-effort drops a tenant database on a node.
func dropDatabase(node Backend, db string) {
	node.DropDatabase(db) //nolint:errcheck // absent database is fine
}

// createFreshDatabase provisions the tenant database on a slave for a
// restore, discarding any leftover copy first. A durable destination that
// crashed mid-restore and restarted recovers the partial slave from its
// data dir; per the Sec 4.2 discard rule that partial state is never
// resumed — Madeus discards the slave and rebuilds it from the snapshot.
func createFreshDatabase(sl Backend, tenant string) error {
	err := sl.CreateDatabase(tenant)
	if err == nil {
		return nil
	}
	dropDatabase(sl, tenant)
	if retryErr := sl.CreateDatabase(tenant); retryErr == nil {
		obs.Trace.Emit(tenant, "step2.slave.stale_discarded", obs.F("slave", sl.BackendName()))
		return nil
	}
	return err
}

// String renders a compact single-line report.
func (r *Report) String() string {
	status := "ok"
	if r.Failed {
		status = "FAILED: " + r.Err.Error()
		if r.RollbackStep != "" {
			status = "FAILED at " + r.RollbackStep + ": " + r.Err.Error()
		}
	}
	us := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	return fmt.Sprintf("migrate %s %s->%s [%s] total=%v drain=%v snap=%v restore=%v propagate=%v switch=%v suspend=%v (drain=%v propagate=%v probe=%v flip=%v) syncsets=%d maxGroup=%d gc=%v/%d %s",
		r.Tenant, r.Source, r.Dest, r.Strategy, r.Total().Round(time.Millisecond),
		r.DrainTime.Round(time.Millisecond), r.SnapshotTime.Round(time.Millisecond),
		r.RestoreTime.Round(time.Millisecond), r.PropagateTime.Round(time.Millisecond),
		r.SwitchTime.Round(time.Millisecond), us(r.SuspensionWindow),
		us(r.SuspendDrain), us(r.SuspendPropagate), us(r.SuspendProbe), us(r.SuspendFlip),
		r.Propagation.Syncsets, r.Propagation.MaxGroup, us(r.GCCPU), r.GCCycles, status)
}
