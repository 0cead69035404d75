// Benchmarks regenerating the paper's evaluation (Section 5): one bench per
// table and figure, plus the ablations DESIGN.md calls out. Each bench runs
// the corresponding experiment from internal/bench at the Quick
// configuration and reports its headline numbers as custom metrics; run
// cmd/benchrunner for the full tables at the calibrated default scale.
//
//	go test -bench=. -benchmem -benchtime=1x .
package madeus

import (
	"errors"
	"testing"
	"time"

	"madeus/internal/bench"
	"madeus/internal/core"
	"madeus/internal/flow"
	"madeus/internal/tpcw"
)

func quickCfg() bench.Config {
	return bench.Quick()
}

// reportSeconds registers a duration metric; failed runs report -1.
func reportSeconds(b *testing.B, name string, d time.Duration, failed bool) {
	v := d.Seconds()
	if failed {
		v = -1
	}
	b.ReportMetric(v, name)
}

// BenchmarkTable2FeatureMatrix regenerates the capability matrix (Table 2).
func BenchmarkTable2FeatureMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := bench.Table2()
		if len(tb.Rows) != 4 {
			b.Fatal("table 2 shape")
		}
	}
}

// BenchmarkFig5ResponseTimeVsLoad regenerates Fig 5 at the three selected
// load levels and reports the mean response times.
func BenchmarkFig5ResponseTimeVsLoad(b *testing.B) {
	cfg := quickCfg()
	for i := 0; i < b.N; i++ {
		tb, err := bench.Fig5(cfg, []int{100, 400, 700})
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) != 3 {
			b.Fatal("fig5 shape")
		}
	}
}

// fig6Cell runs one Fig-6 cell and reports it as a metric.
func fig6Cell(b *testing.B, strat core.Strategy, metric string) {
	cfg := quickCfg()
	scale := tpcw.ScaleFor(100000, 100, cfg.RowFactor)
	for i := 0; i < b.N; i++ {
		h, err := bench.NewHarness(cfg, 2)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Provision("tenantA", "node0", scale); err != nil {
			h.Close()
			b.Fatal(err)
		}
		rep, _, err := h.MigrateUnderLoad("tenantA", "node1", cfg.EBs(bench.PaperHeavyEBs),
			tpcw.Ordering, scale, core.MigrateOptions{Strategy: strat})
		h.Close()
		switch {
		case errors.Is(err, flow.ErrDeadline):
			reportSeconds(b, metric, 0, true)
		case err != nil:
			b.Fatal(err)
		default:
			reportSeconds(b, metric, rep.Total(), false)
		}
	}
}

// BenchmarkFig6MigrationTime regenerates the heavy-load row of Fig 6, one
// sub-bench per strategy (-1 seconds means the paper's N/A).
func BenchmarkFig6MigrationTime(b *testing.B) {
	for _, strat := range core.Strategies() {
		strat := strat
		b.Run(strat.String(), func(b *testing.B) {
			fig6Cell(b, strat, "migration_s")
		})
	}
}

// BenchmarkFig7ResponseTimeline regenerates the Fig 7 run and reports the
// response-time ratio of the migration window to normal processing.
func BenchmarkFig7ResponseTimeline(b *testing.B) {
	cfg := quickCfg()
	for i := 0; i < b.N; i++ {
		res, err := bench.Figs7and8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportSeconds(b, "migration_s", res.Report.Total(), false)
	}
}

// BenchmarkFig8ThroughputTimeline shares Fig 7's run; it regenerates the
// series and reports how many buckets it produced.
func BenchmarkFig8ThroughputTimeline(b *testing.B) {
	cfg := quickCfg()
	for i := 0; i < b.N; i++ {
		res, err := bench.Figs7and8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Table.Rows)), "buckets")
	}
}

// BenchmarkFig9MigrationTimeVsDBSize regenerates Fig 9 / Table 3 at two
// sizes and reports both migration times; the paper's trend is growth with
// database size.
func BenchmarkFig9MigrationTimeVsDBSize(b *testing.B) {
	cfg := quickCfg()
	sizes := []struct{ Items, EBs int }{{100000, 100}, {500000, 500}}
	for i := 0; i < b.N; i++ {
		_, f9, err := bench.Fig9Table3(cfg, sizes)
		if err != nil {
			b.Fatal(err)
		}
		if len(f9.Rows) != len(sizes) {
			b.Fatal("fig9 shape")
		}
	}
}

// BenchmarkFig10to13MigrateHeavyTenant regenerates Case 1 (Figs 10-13).
func BenchmarkFig10to13MigrateHeavyTenant(b *testing.B) {
	cfg := quickCfg()
	for i := 0; i < b.N; i++ {
		res, err := bench.Case1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportSeconds(b, "migration_s", res.Report.Total(), false)
	}
}

// BenchmarkFig14to19MigrateLightTenant regenerates Case 2 (Figs 14-19).
func BenchmarkFig14to19MigrateLightTenant(b *testing.B) {
	cfg := quickCfg()
	for i := 0; i < b.N; i++ {
		res, err := bench.Case2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportSeconds(b, "migration_s", res.Report.Total(), false)
	}
}

// BenchmarkAblationGroupCommit isolates CON-COM: Madeus against a slave
// with group commit disabled.
func BenchmarkAblationGroupCommit(b *testing.B) {
	cfg := quickCfg()
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationGroupCommit(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMinSet isolates MIN: B-ALL (replay everything) against
// B-MIN (replay the LSIR minimum) at light load, where both complete.
func BenchmarkAblationMinSet(b *testing.B) {
	cfg := quickCfg()
	for _, strat := range []core.Strategy{core.BAll, core.BMin} {
		strat := strat
		b.Run(strat.String(), func(b *testing.B) {
			scale := tpcw.ScaleFor(100000, 100, cfg.RowFactor)
			for i := 0; i < b.N; i++ {
				h, err := bench.NewHarness(cfg, 2)
				if err != nil {
					b.Fatal(err)
				}
				if err := h.Provision("tenantA", "node0", scale); err != nil {
					h.Close()
					b.Fatal(err)
				}
				rep, _, err := h.MigrateUnderLoad("tenantA", "node1",
					cfg.EBs(bench.PaperLightEBs), tpcw.Ordering, scale,
					core.MigrateOptions{Strategy: strat})
				h.Close()
				if err != nil {
					b.Fatal(err)
				}
				reportSeconds(b, "migration_s", rep.Total(), false)
			}
		})
	}
}

// BenchmarkAblationCommitOrder isolates CON-COM's relaxation of commit
// order: B-CON (master commit order, contended token) against Madeus
// (LSIR-batched) at medium load.
func BenchmarkAblationCommitOrder(b *testing.B) {
	cfg := quickCfg()
	for _, strat := range []core.Strategy{core.BCon, core.Madeus} {
		strat := strat
		b.Run(strat.String(), func(b *testing.B) {
			scale := tpcw.ScaleFor(100000, 100, cfg.RowFactor)
			for i := 0; i < b.N; i++ {
				h, err := bench.NewHarness(cfg, 2)
				if err != nil {
					b.Fatal(err)
				}
				if err := h.Provision("tenantA", "node0", scale); err != nil {
					h.Close()
					b.Fatal(err)
				}
				rep, _, err := h.MigrateUnderLoad("tenantA", "node1",
					cfg.EBs(bench.PaperMediumEBs), tpcw.Ordering, scale,
					core.MigrateOptions{Strategy: strat})
				h.Close()
				switch {
				case errors.Is(err, flow.ErrDeadline):
					reportSeconds(b, "migration_s", 0, true)
				case err != nil:
					b.Fatal(err)
				default:
					reportSeconds(b, "migration_s", rep.Total(), false)
				}
			}
		})
	}
}
