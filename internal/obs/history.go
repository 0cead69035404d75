package obs

import (
	"sort"
	"sync"
	"time"
)

// Sample is one point of a tenant's time series: the migration-relevant
// gauges (lag, debt, pacing, SSL footprint, sessions) plus the cumulative
// relayed-operation count, from which the per-sample throughput is derived
// at record time so readers never need the neighboring sample.
type Sample struct {
	At        time.Time     `json:"at"`
	Lag       int64         `json:"lag"`
	Debt      int64         `json:"debt"`
	Ops       int64         `json:"ops"`   // cumulative operations relayed for the tenant
	OpsPerSec float64       `json:"ops_s"` // derived from the previous sample's Ops/At
	PaceDelay time.Duration `json:"pace"`
	SSLBytes  int64         `json:"ssl_bytes"`
	Sessions  int64         `json:"sessions"`
}

// DefaultHistoryCap is the per-tenant ring size of the package-level
// history: at the default 1s cadence, a bit over 8 minutes of samples in a
// fixed ~40KB per tenant.
const DefaultHistoryCap = 512

// Hist is the process-wide history the middleware's sampler records into
// and the admin HISTORY command reads.
var Hist = NewHistory(DefaultHistoryCap)

// History holds fixed-memory per-tenant sample rings. Recording is a map
// lookup and a slot write under one mutex — it happens at sampler cadence
// (seconds), never on the per-operation hot path — and the whole structure
// is gated on the global obs enable flag like every other mutation in the
// package.
type History struct {
	mu     sync.Mutex
	cap    int
	series map[string]*sampleRing
}

type sampleRing struct {
	ring []Sample
	next uint64 // total samples ever recorded; ring[next%len] is the oldest slot
}

// NewHistory creates a history with per-tenant rings of n samples
// (minimum 16).
func NewHistory(n int) *History {
	if n < 16 {
		n = 16
	}
	return &History{cap: n, series: make(map[string]*sampleRing)}
}

// Record appends one sample to the tenant's ring, deriving OpsPerSec from
// the previous sample.
func (h *History) Record(tenant string, s Sample) {
	h.mu.Lock()
	r := h.series[tenant]
	if r == nil {
		r = &sampleRing{ring: make([]Sample, h.cap)}
		h.series[tenant] = r
	}
	if r.next > 0 {
		prev := r.ring[(r.next-1)%uint64(len(r.ring))]
		if dt := s.At.Sub(prev.At).Seconds(); dt > 0 && s.Ops >= prev.Ops {
			s.OpsPerSec = float64(s.Ops-prev.Ops) / dt
		}
	}
	r.ring[r.next%uint64(len(r.ring))] = s
	r.next++
	h.mu.Unlock()
}

// Drop removes a tenant's series (tenant teardown; keeps long-lived
// processes from accumulating rings for departed tenants).
func (h *History) Drop(tenant string) {
	h.mu.Lock()
	delete(h.series, tenant)
	h.mu.Unlock()
}

// Tenants lists tenants with recorded samples, sorted.
func (h *History) Tenants() []string {
	h.mu.Lock()
	out := make([]string, 0, len(h.series))
	for t := range h.series {
		out = append(out, t)
	}
	h.mu.Unlock()
	sort.Strings(out)
	return out
}

// Last returns the tenant's most recent n samples, oldest first.
func (h *History) Last(tenant string, n int) []Sample {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := h.series[tenant]
	if r == nil {
		return nil
	}
	return r.copyLocked(n)
}

// Window returns the tenant's samples with from <= At <= to, oldest first.
// A zero `to` means "no upper bound".
func (h *History) Window(tenant string, from, to time.Time) []Sample {
	h.mu.Lock()
	var all []Sample
	if r := h.series[tenant]; r != nil {
		all = r.copyLocked(len(r.ring))
	}
	h.mu.Unlock()
	out := make([]Sample, 0, len(all))
	for _, s := range all {
		if s.At.Before(from) || (!to.IsZero() && s.At.After(to)) {
			continue
		}
		out = append(out, s)
	}
	return out
}

// Snapshot copies the most recent n samples of every tenant (the -debug
// JSON endpoint's history section).
func (h *History) Snapshot(n int) map[string][]Sample {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string][]Sample, len(h.series))
	for t, r := range h.series {
		out[t] = r.copyLocked(n)
	}
	return out
}

func (r *sampleRing) copyLocked(n int) []Sample {
	size := uint64(len(r.ring))
	have := r.next
	if have > size {
		have = size
	}
	if n >= 0 && uint64(n) < have {
		have = uint64(n)
	}
	out := make([]Sample, 0, have)
	for i := r.next - have; i < r.next; i++ {
		out = append(out, r.ring[i%size])
	}
	return out
}

// SeriesStats is min/max/avg over one field of a sample window.
type SeriesStats struct {
	Min int64   `json:"min"`
	Max int64   `json:"max"`
	Avg float64 `json:"avg"`
}

// WindowStats summarizes a sample window field by field.
type WindowStats struct {
	Count     int         `json:"count"`
	From      time.Time   `json:"from,omitempty"`
	To        time.Time   `json:"to,omitempty"`
	Lag       SeriesStats `json:"lag"`
	Debt      SeriesStats `json:"debt"`
	OpsPerSec SeriesStats `json:"ops_s"`
	PaceNs    SeriesStats `json:"pace_ns"`
	SSLBytes  SeriesStats `json:"ssl_bytes"`
	Sessions  SeriesStats `json:"sessions"`
}

// Summarize computes windowed min/max/avg over a sample slice. An empty
// window yields the zero WindowStats.
func Summarize(samples []Sample) WindowStats {
	var st WindowStats
	if len(samples) == 0 {
		return st
	}
	st.Count = len(samples)
	st.From = samples[0].At
	st.To = samples[len(samples)-1].At
	acc := func(s *SeriesStats, i int, v int64) {
		if i == 0 || v < s.Min {
			s.Min = v
		}
		if i == 0 || v > s.Max {
			s.Max = v
		}
		s.Avg += float64(v)
	}
	for i, s := range samples {
		acc(&st.Lag, i, s.Lag)
		acc(&st.Debt, i, s.Debt)
		acc(&st.OpsPerSec, i, int64(s.OpsPerSec))
		acc(&st.PaceNs, i, int64(s.PaceDelay))
		acc(&st.SSLBytes, i, s.SSLBytes)
		acc(&st.Sessions, i, s.Sessions)
	}
	n := float64(len(samples))
	for _, s := range []*SeriesStats{&st.Lag, &st.Debt, &st.OpsPerSec, &st.PaceNs, &st.SSLBytes, &st.Sessions} {
		s.Avg /= n
	}
	return st
}

// Stats summarizes the tenant's samples inside the trailing window (0 =
// the whole ring).
func (h *History) Stats(tenant string, window time.Duration) WindowStats {
	var from time.Time
	if window > 0 {
		from = time.Now().Add(-window)
	}
	return Summarize(h.Window(tenant, from, time.Time{}))
}
