// Package bench reproduces the paper's evaluation (Section 5): every figure
// and table has a regenerator here, driven either by cmd/benchrunner or by
// the testing.B benches in the repository root.
//
// The paper's testbed (five 4-core Xeon nodes, SATA HDDs, 1 GbE, 0.8-12 GB
// databases, 100-1000 EBs, runs of hundreds of seconds) is scaled down so
// each experiment completes in seconds while preserving the relations the
// paper reports: who wins, by roughly what factor, and where behaviour
// changes. The scaling knobs live in Config; EXPERIMENTS.md records the
// paper-vs-measured comparison for the default configuration.
package bench

import (
	"time"

	"madeus/internal/engine"
	"madeus/internal/wal"
)

// Config is the scale substitution for the paper's testbed.
type Config struct {
	// RowFactor divides TPC-W populations (paper: 100k-2M items).
	RowFactor int
	// EBFactor divides EB counts (paper: 100-1000 EBs).
	EBFactor int
	// Think is the EB think time (paper: TPC-W's ~7 s, scaled to ms).
	Think time.Duration
	// FsyncDelay is the simulated WAL fsync (paper: SATA HDD, ~5-10 ms).
	FsyncDelay time.Duration
	// StmtCost is the simulated per-statement CPU cost.
	StmtCost time.Duration
	// ExecSlots bounds concurrent statement execution per node (paper:
	// 4-core Xeon E3).
	ExecSlots int
	// Warm and Measure are the workload windows around measurements.
	Warm    time.Duration
	Measure time.Duration
	// Deadline bounds a migration attempt, counted from its start, before
	// it reports N/A (the middleware's flow.Config.Deadline).
	Deadline time.Duration
}

// Default returns the calibrated default configuration (see EXPERIMENTS.md).
func Default() Config {
	return Config{
		RowFactor:  50,
		EBFactor:   7,
		Think:      350 * time.Millisecond,
		FsyncDelay: 2 * time.Millisecond,
		StmtCost:   700 * time.Microsecond,
		ExecSlots:  2,
		Warm:       time.Second,
		Measure:    3 * time.Second,
		Deadline:   30 * time.Second,
	}
}

// Quick returns a faster configuration for the testing.B benches: smaller
// populations and shorter windows, same relative cost structure.
func Quick() Config {
	c := Default()
	c.RowFactor = 400
	c.Warm = 200 * time.Millisecond
	c.Measure = time.Second
	c.Deadline = 8 * time.Second
	return c
}

// EBs scales a paper EB count.
func (c Config) EBs(paperEBs int) int {
	n := paperEBs / c.EBFactor
	if n < 1 {
		n = 1
	}
	return n
}

// engineOptions builds the per-node engine configuration.
func (c Config) engineOptions() engine.Options {
	return engine.Options{
		WAL:       wal.Options{SyncDelay: c.FsyncDelay, Mode: wal.GroupCommit},
		ExecSlots: c.ExecSlots,
		StmtCost:  c.StmtCost,
		// PostgreSQL's deadlock_timeout default: waits beyond it abort.
		LockTimeout: time.Second,
		DumpBatch:   50,
	}
}

// Paper-scale load levels (Sec 5.2's preliminary experiment selected these).
const (
	PaperLightEBs  = 100
	PaperMediumEBs = 400
	PaperHeavyEBs  = 700
)
