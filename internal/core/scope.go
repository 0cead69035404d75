package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"madeus/internal/cluster"
	"madeus/internal/fault"
	"madeus/internal/flow"
	"madeus/internal/obs"
)

// Scraper is the optional observability capability of a Backend: pulling
// the node's registry snapshot and event-ring tail. Kept out of the
// Backend interface itself so test doubles that only route queries keep
// compiling; the timeline merger just skips backends without it. Both
// cluster backend flavors implement it — the in-process Node directly,
// the Remote over the wire's MsgObsScrape op.
type Scraper interface {
	ScrapeObs(since uint64, tenant string, maxEvents int) (*obs.RemoteSnapshot, error)
}

var (
	_ Scraper = (*cluster.Node)(nil)
	_ Scraper = (*cluster.Remote)(nil)
)

// localSource labels the middleware's own events in merged timelines.
const localSource = "madeusd"

// Trace event names emitted by the timeline/flight machinery.
const (
	obsEvScrapeError   = "scrape.error"
	obsEvFlightCapture = "flight.capture"
)

// Timeline builds one merged cross-process timeline for a tenant: the
// middleware's own trace tail plus every scrapable node's, each remote
// event annotated with its source and an estimated clock skew (measured
// against the scrape round trip, midpoint method) and ordered on the
// middleware's clock. Nodes sharing an already-merged scope — in-process
// nodes using the process globals — are deduplicated by instance ID, so
// a timeline never shows the same event twice. A node that fails to
// scrape contributes a synthetic error event instead of aborting the
// merge: a half-dead cluster is exactly when the timeline matters.
func (m *Middleware) Timeline(tenant string, maxEvents int) []obs.TimelineEvent {
	if maxEvents <= 0 {
		maxEvents = obs.DefaultTracerCap
	}
	local := obs.Trace.Since(0, tenant)
	if len(local) > maxEvents {
		local = local[len(local)-maxEvents:]
	}
	out := make([]obs.TimelineEvent, 0, len(local))
	for _, e := range local {
		out = append(out, obs.TimelineEvent{Source: localSource, Event: e})
	}
	seen := map[string]bool{obs.Instance(): true}

	m.mu.RLock()
	names := make([]string, 0, len(m.nodes))
	nodes := make(map[string]Backend, len(m.nodes))
	for name, n := range m.nodes {
		names = append(names, name)
		nodes[name] = n
	}
	m.mu.RUnlock()
	sort.Strings(names)

	for _, name := range names {
		sc, ok := nodes[name].(Scraper)
		if !ok {
			continue
		}
		t0 := time.Now()
		snap, err := sc.ScrapeObs(0, tenant, maxEvents)
		rtt := time.Since(t0)
		if err != nil {
			out = append(out, obs.TimelineEvent{Source: name, Event: obs.Event{
				At: time.Now(), Tenant: tenant, Name: obsEvScrapeError,
				Fields: []obs.Field{obs.F("err", err)},
			}})
			continue
		}
		if seen[snap.Instance] {
			continue // shares a scope already merged (in-process node)
		}
		seen[snap.Instance] = true
		// Midpoint skew estimate: the remote stamped snap.Now somewhere
		// inside our [t0, t0+rtt] window; assume the middle. Positive skew
		// means the remote clock runs ahead of ours.
		skew := snap.Now.Sub(t0.Add(rtt / 2))
		for _, e := range snap.Events {
			out = append(out, obs.TimelineEvent{Source: name, Skew: skew, Event: e})
		}
	}
	return obs.MergeTimeline(out)
}

// --- history sampler ---

// SetHistoryCadence retunes the sampler interval at runtime (the admin
// HISTORY CADENCE command). Zero or negative pauses sampling; the loop
// keeps polling at a slow idle rate so a later re-enable takes effect
// without restarting the middleware.
func (m *Middleware) SetHistoryCadence(d time.Duration) {
	m.sampleCadence.Store(int64(d))
}

// HistoryCadence reports the current sampler interval.
func (m *Middleware) HistoryCadence() time.Duration {
	return time.Duration(m.sampleCadence.Load())
}

// sampleLoop drives the history sampler until Close. One reused timer —
// the cadence is re-read every cycle so HISTORY CADENCE retunes a live
// loop.
func (m *Middleware) sampleLoop() {
	defer close(m.sampleDone)
	// While sampling is disabled (cadence <= 0) the loop still wakes at a
	// slow idle rate to notice a re-enable.
	const idlePoll = 250 * time.Millisecond
	next := func() time.Duration {
		if d := time.Duration(m.sampleCadence.Load()); d > 0 {
			return d
		}
		return idlePoll
	}
	timer := time.NewTimer(next())
	defer timer.Stop()
	for {
		select {
		case <-m.sampleStop:
			return
		case <-timer.C:
			m.sampleOnce(time.Now())
			timer.Reset(next())
		}
	}
}

// sampleOnce records one Sample per tenant into the process history. A
// paused cadence returns before touching any tenant.
func (m *Middleware) sampleOnce(now time.Time) {
	if m.sampleCadence.Load() <= 0 {
		return
	}
	m.mu.RLock()
	tenants := make([]*Tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		tenants = append(tenants, t)
	}
	m.mu.RUnlock()
	for _, t := range tenants {
		mon := t.Monitor()
		obs.Hist.Record(t.Name, obs.Sample{
			At:        now,
			Lag:       int64(mon.Lag),
			Debt:      int64(mon.Debt),
			Ops:       t.ops.Load(),
			PaceDelay: mon.PaceDelay,
			SSLBytes:  mon.SSLBytes,
			Sessions:  t.sessions.Load(),
		})
	}
}

// --- flight recorder ---

// captureFlight freezes a diagnostic bundle at the moment a migration
// died: the failing report's identity and rollback cause, the tenant's
// live monitor, the flow layer's counters, the armed fault sites, the
// migration's event tail, the full registry, and the tenant's recent
// history curve. Called from Migrate's fail path — which covers every
// abort flavor (step failures, watchdog deadline/stall, SSL overflow) —
// after the report's Timeline is populated.
func (m *Middleware) captureFlight(t *Tenant, rep *Report, step string, cause error) {
	mon := t.Monitor()
	detail := []obs.Field{
		obs.F("step", step),
		obs.F("err", cause),
		obs.F("source", rep.Source),
		obs.F("dest", rep.Dest),
		obs.F("strategy", rep.Strategy),
		obs.F("mts", rep.MTS),
		obs.F("span", rep.Span),
		obs.F("node", mon.Node),
		obs.F("mlc", mon.MLC),
		obs.F("lag", mon.Lag),
		obs.F("debt", mon.Debt),
		obs.F("ssl_depth", mon.SSLDepth),
		obs.F("ssl_bytes", mon.SSLBytes),
		obs.F("pace_delay", mon.PaceDelay),
		obs.F("active_txns", mon.ActiveTxns),
		obs.F("flow.sessions", flow.Sessions()),
		obs.F("flow.sheds", flow.Sheds()),
		obs.F("flow.stalls", flow.Stalls()),
		obs.F("flow.deadline_aborts", flow.DeadlineAborts()),
		obs.F("flow.ssl_overflows", flow.Overflows()),
	}
	if fault.Enabled {
		detail = append(detail, obs.F("fault.sites", strings.Join(fault.List(), ",")))
	}
	id := obs.Flight.Capture(obs.Bundle{
		Tenant:  t.Name,
		Reason:  fmt.Sprintf("rollback at %s: %v", step, cause),
		Detail:  detail,
		Events:  rep.Timeline,
		Metrics: obs.Default.Snapshot(),
		History: obs.Hist.Last(t.Name, 128),
	})
	obs.Trace.Emit(t.Name, obsEvFlightCapture, obs.F("bundle", id), obs.F("step", step))
}
