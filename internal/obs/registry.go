package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry names and snapshots a set of metrics. Registration happens at
// package init or setup time; reads take the lock briefly to copy the
// metric list, then read each metric atomically. The hot path (Counter.Add
// etc.) never touches the registry.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]any
	ordered []string
}

// NewRegistry creates an empty registry (tests; production code uses
// Default).
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]any)}
}

// Default is the process-wide registry every subsystem registers into.
var Default = NewRegistry()

func (r *Registry) register(name string, m any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.byName[name] = m
	r.ordered = append(r.ordered, name)
	sort.Strings(r.ordered)
}

// NewCounter registers a striped counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(name, c)
	return c
}

// NewGauge registers a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(name, g)
	return g
}

// NewGaugeFunc registers a callback gauge.
func (r *Registry) NewGaugeFunc(name, help string, fn func() int64) *GaugeFunc {
	g := &GaugeFunc{name: name, help: help, fn: fn}
	r.register(name, g)
	return g
}

// NewHistogram registers a histogram with the given inclusive upper bounds
// (must be sorted ascending and non-empty).
func (r *Registry) NewHistogram(name, help string, bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{name: name, help: help, bounds: bounds}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	r.register(name, h)
	return h
}

// Unregister removes a registered metric by name, reporting whether it
// existed. The metric object itself keeps working for holders of the
// pointer; it just stops appearing in snapshots — which is the point:
// series for departed tenants must not accumulate in long-lived processes.
func (r *Registry) Unregister(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; !ok {
		return false
	}
	delete(r.byName, name)
	for i, n := range r.ordered {
		if n == name {
			r.ordered = append(r.ordered[:i], r.ordered[i+1:]...)
			break
		}
	}
	return true
}

// UnregisterPrefix removes every metric whose name starts with prefix (the
// per-tenant teardown path: one call drops the tenant's whole dynamic
// series family). Returns how many were removed.
func (r *Registry) UnregisterPrefix(prefix string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.ordered[:0]
	removed := 0
	for _, n := range r.ordered {
		if strings.HasPrefix(n, prefix) {
			delete(r.byName, n)
			removed++
			continue
		}
		kept = append(kept, n)
	}
	r.ordered = kept
	return removed
}

// ReplaceGaugeFunc registers a callback gauge, replacing any existing
// metric under the same name instead of panicking. This is the sanctioned
// API for DYNAMIC series — per-tenant gauges keyed by tenant name — where
// replace semantics keep remove/re-add cycles (and two middleware
// instances in one test process) safe. Static one-per-process metrics must
// keep using NewGaugeFunc with a constant name.
func (r *Registry) ReplaceGaugeFunc(name, help string, fn func() int64) *GaugeFunc {
	g := &GaugeFunc{name: name, help: help, fn: fn}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; !ok {
		r.ordered = append(r.ordered, name)
		sort.Strings(r.ordered)
	}
	r.byName[name] = g
	return g
}

// MetricKind tags a snapshot entry.
type MetricKind string

// Snapshot kinds.
const (
	KindCounter   MetricKind = "counter"
	KindGauge     MetricKind = "gauge"
	KindHistogram MetricKind = "histogram"
)

// Metric is one snapshot entry. Value is set for counters and gauges;
// Hist for histograms.
type Metric struct {
	Name  string             `json:"name"`
	Kind  MetricKind         `json:"kind"`
	Help  string             `json:"help,omitempty"`
	Value int64              `json:"value,omitempty"`
	Hist  *HistogramSnapshot `json:"hist,omitempty"`
}

// Render formats the metric's value the way STATS prints it: a plain
// integer, or a histogram digest with count, mean, p99
// (durations humanized when the bounds look like nanoseconds).
func (m Metric) Render() string {
	if m.Hist == nil {
		return fmt.Sprintf("%d", m.Value)
	}
	h := m.Hist
	// Heuristic: bucket bounds at or past 100µs in ns mean a duration
	// histogram; render its stats as durations.
	if len(h.Bounds) > 0 && h.Bounds[0] >= int64(100*time.Microsecond) {
		return fmt.Sprintf("count=%d mean=%v p99=%v max=%v",
			h.Count, time.Duration(h.Mean()).Round(time.Microsecond),
			time.Duration(h.Quantile(0.99)).Round(time.Microsecond),
			time.Duration(h.Max).Round(time.Microsecond))
	}
	return fmt.Sprintf("count=%d mean=%.1f p99=%d max=%d",
		h.Count, h.Mean(), h.Quantile(0.99), h.Max)
}

// Snapshot freezes every registered metric, sorted by name.
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	names := append([]string(nil), r.ordered...)
	metrics := make([]any, len(names))
	for i, n := range names {
		metrics[i] = r.byName[n]
	}
	r.mu.Unlock()

	out := make([]Metric, 0, len(names))
	for i, n := range names {
		switch m := metrics[i].(type) {
		case *Counter:
			out = append(out, Metric{Name: n, Kind: KindCounter, Help: m.help, Value: int64(m.Value())})
		case *Gauge:
			out = append(out, Metric{Name: n, Kind: KindGauge, Help: m.help, Value: m.Value()})
		case *GaugeFunc:
			out = append(out, Metric{Name: n, Kind: KindGauge, Help: m.help, Value: m.Value()})
		case *Histogram:
			s := m.Snapshot()
			out = append(out, Metric{Name: n, Kind: KindHistogram, Help: m.help, Hist: &s})
		}
	}
	return out
}

// Package-level helpers registering on Default — what subsystem files use
// for their one-per-process metric vars.

// NewCounter registers a counter on the Default registry.
func NewCounter(name, help string) *Counter { return Default.NewCounter(name, help) }

// NewGauge registers a gauge on the Default registry.
func NewGauge(name, help string) *Gauge { return Default.NewGauge(name, help) }

// NewGaugeFunc registers a callback gauge on the Default registry.
func NewGaugeFunc(name, help string, fn func() int64) *GaugeFunc {
	return Default.NewGaugeFunc(name, help, fn)
}

// NewHistogram registers a histogram on the Default registry.
func NewHistogram(name, help string, bounds []int64) *Histogram {
	return Default.NewHistogram(name, help, bounds)
}
