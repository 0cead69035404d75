package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"madeus/internal/engine"
	"madeus/internal/tpcw"
	"madeus/internal/wire"
)

// None of these tests asserts a timing.

func TestStatementStreamFollowsSeed(t *testing.T) {
	for _, wl := range workloads {
		a, b := record(wl, 7000, 1, 300), record(wl, 7000, 1, 300)
		if len(a) != 300 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different statement streams", wl.Name)
		}
		if c := record(wl, 8000, 1, 300); reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same statement stream", wl.Name)
		}
	}
}

// instant is an Execer that commits everything at once.
type instant struct{}

func (instant) Exec(sql string) (*engine.Result, error) {
	return &engine.Result{Tag: sql}, nil
}

func TestPhaseBoundariesFallOnExactCounts(t *testing.T) {
	sz := sizes{W: 50, S: 400, K: 3, M: 70}
	for n, want := range map[int]string{0: "rolled-back", 1: "warmup", 50: "warmup", 51: "steady", 450: "steady", 451: "migrating"} {
		if got := sz.phaseOf(n); got != want {
			t.Errorf("phaseOf(%d) = %s, want %s", n, got, want)
		}
	}

	f := newFleet(sz, false)
	f.start(workloads[1], 1, []tpcw.Execer{instant{}, instant{}})
	last := sz.W + sz.S + sz.K*sz.M
	for _, n := range []int{sz.W, sz.W + sz.S, last} {
		if err := f.reach(n); err != nil {
			t.Fatal(err)
		}
		if got := int(f.committed.Load()); got < n {
			t.Fatalf("reach(%d) returned at %d", n, got)
		}
	}
	if err := f.stop(); err != nil {
		t.Fatal(err)
	}
	steady, mig, failed := 0, 0, 0
	for _, c := range f.clients {
		steady += len(c.steady)
		mig += len(c.mig)
		failed += c.failed
	}
	total := int(f.committed.Load())
	if steady != sz.S || mig != total-sz.W-sz.S || failed != 0 {
		t.Errorf("steady=%d (want %d) mig=%d (want %d) failed=%d", steady, sz.S, mig, total-sz.W-sz.S, failed)
	}
	if f.steadyStart.at == 0 || f.steadyEnd.at <= f.steadyStart.at {
		t.Errorf("steady marks: start %d end %d", f.steadyStart.at, f.steadyEnd.at)
	}
}

func TestScaledSizes(t *testing.T) {
	z := sizes{W: 100, S: 7000, K: 5, M: 300}
	if got := z.scaled(refSeconds); got != z {
		t.Errorf("scaled(refSeconds) = %+v, want %+v", got, z)
	}
	if got := z.scaled(2 * refSeconds); got.S != 14000 || got.K != 10 || got.W != z.W || got.M != z.M {
		t.Errorf("scaled(2×ref) = %+v", got)
	}
	if got := z.scaled(1); got.S < 1 || got.K < 1 {
		t.Errorf("scaled(1) = %+v", got)
	}
}

func TestPercentile(t *testing.T) {
	vs := make([]float64, 200)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	if v, ok := percentile(vs, 0.50); v != 100 || !ok {
		t.Errorf("p50 of 1..200 = %v, %v", v, ok)
	}
	// Rank 190 of 200 leaves exactly ten samples beyond it.
	if v, ok := percentile(vs, 0.95); v != 190 || !ok {
		t.Errorf("p95 of 1..200 = %v, %v; want 190, supported", v, ok)
	}
	if v, ok := percentile(vs[:199], 0.95); v != 190 || ok {
		t.Errorf("p95 of 1..199 = %v, %v; want 190, unsupported (nine beyond)", v, ok)
	}
	if v, ok := percentile(vs[:1], 0.95); v != 1 || ok {
		t.Errorf("p95 of one sample = %v, %v", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("a percentile of nothing is supported")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json and the tables in this
// package together.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, the sizes are calibrated for %d", spec.RunSeconds, refSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %q/%q here %q/%q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
				t.Errorf("%s %d: %+v here %+v", kind, i, m, w)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s: bad or repeated name or unit: %q %q", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound != w.Bound || w.Bound <= 0 || w.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v here %v", kind, m.Name, m.Bound, w.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in s, lower is better")
	}
}

func TestGateCatchesALostCommit(t *testing.T) {
	wl := workloads[1]
	wl.Scale = tpcw.Scale{Items: 20, Customers: 20, Authors: 5}
	b, err := boot(wl)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if err := b.mw.ProvisionTenant(tenant, b.nodes[0].Name); err != nil {
		t.Fatal(err)
	}
	c, err := wire.Dial(b.mw.Addr(), tenant)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := tpcw.Load(c, wl.Scale); err != nil {
		t.Fatal(err)
	}
	// A client was told its order committed; the table does not have it.
	o := &outcome{wl: wl, f: &fleet{clients: []*client{{orders: 1}}}}
	if err := gate(b, o); err == nil || !strings.Contains(err.Error(), "orders has 0 rows") {
		t.Errorf("gate = %v, want the lost order reported", err)
	}
	o.f.clients[0].orders = 0
	if err := gate(b, o); err != nil {
		t.Errorf("gate on a consistent tenant: %v", err)
	}
}

// TestMiniatureRun drives the whole pipeline — three set-ups, steady phase,
// two migrations under load, the correctness gate, spans, probes, the trace
// file — at a size that takes a couple of seconds.
func TestMiniatureRun(t *testing.T) {
	wl := workloads[1]
	wl.Scale = tpcw.Scale{Items: 200, Customers: 500, Authors: 50}
	sz := sizes{W: 100, S: 2 * traceBlock * 2, K: 2, M: 200}
	dir := t.TempDir()
	o, err := run(wl, sz, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.migs) != sz.K || len(o.setups) != setUps {
		t.Errorf("%d migrations, %d set-ups", len(o.migs), len(o.setups))
	}
	r := summarize(o)
	for _, s := range clientMetrics {
		if v, ok := r.values[s.Name]; !ok || v <= 0 {
			t.Errorf("client metric %s = %v", s.Name, v)
		}
	}
	if len(endToEnd)+len(clientLayer) != len(clientMetrics) || len(clientMetrics) != 11 {
		t.Errorf("%d gated + %d ungated client metrics, want 11 in all", len(endToEnd), len(clientLayer))
	}
	if r.failed != 0 || r.attempted < sz.W+sz.S+sz.K*sz.M {
		t.Errorf("attempted=%d failed=%d", r.attempted, r.failed)
	}
	for _, s := range perLayer {
		if _, ok := o.layers[s.Name]; !ok {
			t.Errorf("per-layer metric %s is missing", s.Name)
		}
	}
	for _, must := range []string{"client.int_per_s", "client.mig_rw_p50_us", "core.proxy_ro_stmt_us", "engine.rw_stmt_us", "wal.commit_us", "mvcc.get_ns", "engine.recover_s", "tpcw.gen_us_per_int"} {
		if o.layers[must] <= 0 {
			t.Errorf("%s = %v", must, o.layers[must])
		}
	}
	path, err := writeTrace(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"interaction"`, `"name":"stmt"`, `"name":"migration"`, `"name":"step3.propagate"`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("%s has no %s span", filepath.Base(path), want)
		}
	}
}
