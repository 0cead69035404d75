package core

import (
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

// obsEvScrapeError is the synthetic event a node that fails to scrape
// contributes to a merged timeline.
const obsEvScrapeError = "scrape.error"

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

// rollbackFields is the detail of a migrate.rollback event: the failing
// report's identity and cause, the tenant's live monitor, the flow layer's
// counters and the armed fault sites, so the state at the moment a
// migration died is in the trace it left. Migrate's fail path covers every
// abort flavor (step failures, watchdog deadline/stall, SSL overflow).
func rollbackFields(t *Tenant, rep *Report, step string, cause error) []obs.Field {
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
	return detail
}
