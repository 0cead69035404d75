// Command benchmark is the repository's one repeatable performance
// instrument: fixed-work TPC-W through the middleware with a train of
// ping-pong live migrations under the same traffic. See README.md.
//
//	bash benchmark/run.sh                                   every workload once
//	bash benchmark/run.sh -workload order-small -seed 7     one workload
//	bash benchmark/run.sh -workload order-small -trace 1    the per-layer run
//	bash benchmark/run.sh -repeat 8                         the noise study
//	bash benchmark/run.sh -selfcheck                        two sets of runs must agree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Int64("seed", 1, "workload seed: client i's EB is seeded seed*1000+i")
	seconds := flag.Int("seconds", refSeconds, "length of the measured window the fixed work is scaled to")
	trace := flag.Int("trace", 0, "1: the traced run (W, S, K halved, then layer probes), printing per-layer metrics")
	repeat := flag.Int("repeat", 1, "runs per workload; more than one prints median, min and max")
	selfcheck := flag.Bool("selfcheck", false, "run two sets of -repeat (at least 3) runs; fail if their medians differ by more than a metric's bound")
	outDir := flag.String("out", "benchmark/out", "directory for trace files and probe scratch data")
	flag.Parse()

	if err := preflight(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	wls := workloads
	if *name != "" {
		wl, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		wls = []workload{wl}
	}
	if *seconds < 1 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds and -repeat must be at least 1")
		os.Exit(2)
	}
	fmt.Printf("madeus benchmark: closed loop, %d clients, zero think time; nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		nClients, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())

	ok := true
	for _, wl := range wls {
		sz := wl.sizes.scaled(*seconds)
		var err error
		switch {
		case *trace != 0:
			err = runTraced(wl, sz.halved(), *seed, *outDir)
		case *selfcheck:
			err = runSelfcheck(wl, sz, *seed, max(*repeat, 3))
		default:
			_, err = runRepeated(wl, sz, *seed, *repeat)
		}
		if err != nil {
			// No metric has been printed for this workload.
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.Name, err)
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// preflight refuses a host the numbers mean nothing on and warns about one
// that is busy.
func preflight() error {
	if runtime.NumCPU() < 2 {
		return fmt.Errorf("nproc=%d: two clients, the middleware and two nodes need at least 2", runtime.NumCPU())
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if fields := strings.Fields(string(raw)); len(fields) > 0 {
			if load, err := strconv.ParseFloat(fields[0], 64); err == nil && load > 0.5 {
				fmt.Fprintf(os.Stderr, "benchmark: warning: 1-minute load average is %.2f; timings will be noisy\n", load)
			}
		}
	}
	return nil
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	return "unknown"
}

// emit prints the driver's result line: one JSON object, last on stdout.
func emit(attempted, failed int, specs []metricSpec, values map[string]float64) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]mv{}
	for _, s := range specs {
		ms[s.Name] = mv{values[s.Name], s.Unit}
	}
	line, err := json.Marshal(map[string]any{"correct": true, "attempted": attempted, "failed": failed, "metrics": ms})
	if err != nil {
		panic(err) // only floats, ints and strings go in
	}
	fmt.Println(string(line))
}

func header(wl workload, sz sizes, seed int64, o *outcome) {
	fmt.Printf("\n%s seed=%d  W=%d S=%d K=%d M=%d  update=%d%% items=%d syncdelay=%v  wall=%.1fs\n",
		wl.Name, seed, sz.W, sz.S, sz.K, sz.M, wl.UpdatePct, wl.Scale.Items, wl.SyncDelay, o.wall.Seconds())
}

// runRepeated runs a workload n times on seeds seed, seed+1, … and prints
// each client-observed metric (with median, min and max when n > 1). It returns
// the per-metric medians.
func runRepeated(wl workload, sz sizes, seed int64, n int) (map[string]float64, error) {
	runs := make([]*result, n)
	for i := range runs {
		o, err := run(wl, sz, seed+int64(i), "")
		if err != nil {
			return nil, err
		}
		runs[i] = summarize(o)
		if i == 0 {
			header(wl, sz, seed, o)
		}
	}
	med := map[string]float64{}
	attempted, failed, retried := 0, 0, 0
	for _, r := range runs {
		attempted += r.attempted
		failed += r.failed
		retried += r.retried
	}
	for _, s := range clientMetrics {
		vs := make([]float64, n)
		for i, r := range runs {
			vs[i] = r.values[s.Name]
		}
		med[s.Name] = median(vs)
		fmt.Printf("  %-18s %12.4f %-4s", s.Name, med[s.Name], s.Unit)
		if n > 1 {
			fmt.Printf("  min %.4f max %.4f range/median %.1f%%", vs[0], vs[n-1], 100*(vs[n-1]-vs[0])/med[s.Name])
		}
		if c, ok := runs[0].samples[s.Name]; ok {
			fmt.Printf("  (%d samples)", c)
		}
		if s.Bound > 0 {
			fmt.Printf("  gated, bound %.0f%%", 100*s.Bound)
		}
		fmt.Println()
	}
	for _, name := range runs[0].unsupported {
		fmt.Printf("  note: %s has fewer than ten samples beyond it\n", name)
	}
	fmt.Printf("  interactions attempted=%d failed=%d, first-updater-wins aborts retried=%d, over %d run(s)\n", attempted, failed, retried, n)
	emit(attempted, failed, endToEnd, med)
	return med, nil
}

// runSelfcheck runs two sets of n runs of the same code and fails when any
// gated metric's set medians differ by more than its bound.
func runSelfcheck(wl workload, sz sizes, seed int64, n int) error {
	a, err := runRepeated(wl, sz, seed, n)
	if err != nil {
		return err
	}
	b, err := runRepeated(wl, sz, seed+int64(n), n)
	if err != nil {
		return err
	}
	var bad []string
	fmt.Printf("\n%s selfcheck: two sets of %d runs\n", wl.Name, n)
	for _, s := range clientMetrics {
		diff := math.Abs(a[s.Name]-b[s.Name]) / a[s.Name]
		verdict := "not gated"
		if s.Bound > 0 {
			verdict = fmt.Sprintf("bound %2.0f%%  ok", 100*s.Bound)
			if diff > s.Bound {
				verdict = fmt.Sprintf("bound %2.0f%%  DISAGREE", 100*s.Bound)
				bad = append(bad, s.Name)
			}
		}
		fmt.Printf("  %-18s %12.4f %12.4f  diff %5.1f%%  %s\n", s.Name, a[s.Name], b[s.Name], 100*diff, verdict)
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: set medians differ by more than the bound on %s", strings.Join(bad, ", "))
	}
	return nil
}

// runTraced is the per-layer run: the same pipeline with client-side spans
// on, then the isolation probes.
func runTraced(wl workload, sz sizes, seed int64, outDir string) error {
	o, err := run(wl, sz, seed, outDir)
	if err != nil {
		return err
	}
	path, err := writeTrace(outDir, o)
	if err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	r := summarize(o)
	header(wl, sz, seed, o)
	fmt.Printf("  traced run: spans in %s\n", path)
	for _, s := range perLayer {
		fmt.Printf("  %-28s %14.4f %s\n", s.Name, o.layers[s.Name], s.Unit)
	}
	emit(r.attempted, r.failed, perLayer, o.layers)
	return nil
}
