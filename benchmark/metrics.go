package main

import (
	"sort"
)

// metricSpec is one reported metric. BENCHMARK.json repeats name, unit,
// better and (end to end) bound; a test holds the two together.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // share of the parent's median it may worsen by; end-to-end only
	What   string
}

// clientMetrics is what a user of the middleware sees, measured on every
// workload by every run, under the issue's names. Only those with a Bound are
// gated (BENCHMARK.json's end_to_end): the noise study in README.md found the
// run-to-run spread of every CPU-bound timing on the reference host to be the
// host's own drift, near or past the largest bound a benchmark may declare.
// The others are reported ungated, as the "client" layer of the traced run.
// Deliberately absent altogether: p99 (the scheduler quantum on a two-vCPU
// host), peak RSS (GC pacing, and it grows with throughput) and the
// suspension window (0.4–3 ms, 6× run to run). They are per-layer.
var clientMetrics = []metricSpec{
	{"setup_s", "s", "lower", 0.25, "median of a run's set-ups: boot, provision, load, dial and the W warm-up interactions"},
	{"int_per_s", "1/s", "higher", 0, "steady-phase interactions per second: the median over 20 equal stretches of the S interactions"},
	{"ro_p50_us", "us", "lower", 0, "BEGIN→COMMIT latency of steady-phase read-only interactions, median (point reads)"},
	{"ro_p95_us", "us", "lower", 0, "same, 95th percentile (lands in the scan interactions; p90 sits on the class boundary)"},
	{"rw_p50_us", "us", "lower", 0, "BEGIN→COMMIT latency of steady-phase update interactions, median"},
	{"rw_p95_us", "us", "lower", 0, "same, 95th percentile"},
	{"migrate_s", "s", "lower", 0.25, "median Report.Total() of the K migrations"},
	{"mig_int_per_s", "1/s", "higher", 0, "interactions committed inside a Migrate call / the call's length, median of the K"},
	{"mig_rw_p50_us", "us", "lower", 0, "latency of update interactions overlapping a Migrate call, median (Figs 7/8)"},
	{"mig_rw_p95_us", "us", "lower", 0, "same, 95th percentile"},
	{"alloc_kb_per_int", "KB", "lower", 0.12, "MemStats.TotalAlloc over the steady phase / S"},
}

// endToEnd is the gated subset of clientMetrics.
var endToEnd = filterMetrics(func(s metricSpec) bool { return s.Bound > 0 })

// clientLayer is the ungated rest, renamed client.<name> for the traced run.
var clientLayer = filterMetrics(func(s metricSpec) bool { return s.Bound == 0 })

func filterMetrics(keep func(metricSpec) bool) []metricSpec {
	var out []metricSpec
	for _, s := range clientMetrics {
		if keep(s) {
			if s.Bound == 0 {
				s.Name = "client." + s.Name
			}
			out = append(out, s)
		}
	}
	return out
}

// result is one run's end-to-end view.
type result struct {
	values      map[string]float64
	samples     map[string]int // how many samples stand behind a latency metric
	unsupported []string       // percentiles with fewer than ten samples beyond them
	attempted   int
	failed      int
	retried     int // first-updater-wins aborts the clients retried
}

func micros(ns int64) float64 { return float64(ns) / 1e3 }

// summarize derives the end-to-end metrics from a finished run.
func summarize(o *outcome) *result {
	f, sz := o.f, o.sz
	r := &result{values: map[string]float64{}, samples: map[string]int{}}

	var ro, rw, migRW []float64
	var ends []int64 // steady-phase commit times
	inMig := make([]float64, len(o.migs))
	for _, c := range f.clients {
		r.failed += c.failed
		r.retried += c.retried
		for _, s := range c.steady {
			ends = append(ends, s.end)
			if s.update {
				rw = append(rw, micros(s.end-s.begin))
			} else {
				ro = append(ro, micros(s.end-s.begin))
			}
		}
		for _, s := range c.mig {
			for k, m := range o.migs {
				if s.end >= m.start && s.end <= m.end {
					inMig[k]++
				}
				if s.update && s.begin < m.end && s.end > m.start {
					migRW = append(migRW, micros(s.end-s.begin))
					break
				}
			}
		}
	}
	r.attempted = int(f.committed.Load()) + r.failed

	sort.Float64s(ro)
	sort.Float64s(rw)
	sort.Float64s(migRW)
	pct := func(name string, vs []float64, p float64) {
		v, ok := percentile(vs, p)
		r.values[name], r.samples[name] = v, len(vs)
		if !ok {
			r.unsupported = append(r.unsupported, name)
		}
	}
	r.values["setup_s"] = median(append([]float64(nil), o.setups...))
	r.values["int_per_s"] = median(blockRates(ends, f.steadyStart.at))
	pct("ro_p50_us", ro, 0.50)
	pct("ro_p95_us", ro, 0.95)
	pct("rw_p50_us", rw, 0.50)
	pct("rw_p95_us", rw, 0.95)
	totals := make([]float64, len(o.migs))
	for k, m := range o.migs {
		totals[k] = m.rep.Total().Seconds()
		inMig[k] /= float64(m.end-m.start) / 1e9
	}
	r.values["migrate_s"] = median(totals)
	r.values["mig_int_per_s"] = median(inMig)
	pct("mig_rw_p50_us", migRW, 0.50)
	pct("mig_rw_p95_us", migRW, 0.95)
	r.values["alloc_kb_per_int"] = float64(f.steadyEnd.mem.TotalAlloc-f.steadyStart.mem.TotalAlloc) / 1024 / float64(sz.S)
	return r
}

// steadyBlocks is how many equal stretches the steady phase is cut into.
// Reporting the median stretch keeps a stall of the host (they last from
// tens of milliseconds to seconds on a shared sandbox) out of int_per_s.
const steadyBlocks = 20

// blockRates cuts the commit times of the steady phase, which began at
// start, into steadyBlocks equal counts and returns each stretch's rate.
func blockRates(ends []int64, start int64) []float64 {
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	n := len(ends) / steadyBlocks
	if n == 0 {
		return []float64{float64(len(ends)) / (float64(ends[len(ends)-1]-start) / 1e9)}
	}
	rates := make([]float64, steadyBlocks)
	for b := range rates {
		last := ends[(b+1)*n-1]
		rates[b] = float64(n) / (float64(last-start) / 1e9)
		start = last
	}
	return rates
}
