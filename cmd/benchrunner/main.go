// Command benchrunner regenerates the paper's tables and figures.
//
// Usage:
//
//	benchrunner -exp fig6            # one experiment
//	benchrunner -exp all             # everything (several minutes)
//	benchrunner -list                # show available experiments
//	benchrunner -exp fig5 -quick     # faster, smaller populations
//
// Scale knobs (-rowfactor, -ebfactor, -fsync, ...) override the calibrated
// defaults documented in EXPERIMENTS.md.
//
// -json <path> additionally records each experiment's rendered output and
// wall-clock duration (plus the exact Config used) to a machine-readable
// baseline file — the `BENCH_*.json` perf-trajectory snapshots ROADMAP.md
// asks for. Compare two snapshots with any JSON diff; the duration field is
// the coarse regression signal, the embedded tables the precise one.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"madeus/internal/bench"
)

// benchSnapshot is the on-disk shape of a -json baseline.
type benchSnapshot struct {
	Quick       bool         `json:"quick"`
	Config      bench.Config `json:"config"`
	Experiments []benchEntry `json:"experiments"`
}

type benchEntry struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
	Output  string  `json:"output"`
}

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list    = flag.Bool("list", false, "list experiments")
		quick   = flag.Bool("quick", false, "use the quick configuration")
		rowF    = flag.Int("rowfactor", 0, "override row scale divisor")
		ebF     = flag.Int("ebfactor", 0, "override EB divisor")
		fsync   = flag.Duration("fsync", 0, "override simulated fsync delay")
		stmt    = flag.Duration("stmtcost", 0, "override per-statement CPU cost")
		think   = flag.Duration("think", 0, "override EB think time")
		measure = flag.Duration("measure", 0, "override measurement window")
		dline   = flag.Duration("deadline", 0, "override the migration deadline (N/A threshold)")
		slots   = flag.Int("slots", 0, "override execution slots per node")
		jsonOut = flag.String("json", "", "write a BENCH_*.json baseline (output + timings) to this path")
	)
	flag.Parse()

	cfg := bench.Default()
	if *quick {
		cfg = bench.Quick()
	}
	if *rowF > 0 {
		cfg.RowFactor = *rowF
	}
	if *ebF > 0 {
		cfg.EBFactor = *ebF
	}
	if *fsync > 0 {
		cfg.FsyncDelay = *fsync
	}
	if *stmt > 0 {
		cfg.StmtCost = *stmt
	}
	if *think > 0 {
		cfg.Think = *think
	}
	if *measure > 0 {
		cfg.Measure = *measure
	}
	if *dline > 0 {
		cfg.Deadline = *dline
	}
	if *slots > 0 {
		cfg.ExecSlots = *slots
	}

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-22s %s\n", e.ID, e.Desc)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	snap := benchSnapshot{Quick: *quick, Config: cfg}
	run := func(id string) {
		start := time.Now()
		fmt.Printf("# running %s ...\n", id)
		var out io.Writer = os.Stdout
		var buf bytes.Buffer
		if *jsonOut != "" {
			out = io.MultiWriter(os.Stdout, &buf)
		}
		if err := bench.RunByID(id, cfg, out); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %s: %v\n", id, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		fmt.Printf("# %s done in %v\n\n", id, elapsed.Round(time.Millisecond))
		if *jsonOut != "" {
			snap.Experiments = append(snap.Experiments, benchEntry{
				ID: id, Seconds: elapsed.Seconds(), Output: buf.String(),
			})
		}
	}
	if *exp == "all" {
		for _, e := range bench.Experiments() {
			// fig8 and fig9/table3 are aliases of shared runs; skip
			// the duplicates in 'all' mode.
			if e.ID == "fig8" || e.ID == "fig9" {
				continue
			}
			run(e.ID)
		}
	} else {
		run(*exp)
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchrunner: wrote %s\n", *jsonOut)
	}
}
