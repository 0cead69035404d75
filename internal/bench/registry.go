package bench

import (
	"fmt"
	"io"
	"sort"

	"madeus/internal/core"
	"madeus/internal/obs"
)

// Experiment is one registered regenerator for a paper figure or table.
type Experiment struct {
	ID   string
	Desc string
	Run  func(cfg Config, w io.Writer) error
}

// Experiments lists every regenerator, sorted by id.
func Experiments() []Experiment {
	exps := []Experiment{
		{"table2", "feature matrix of the four middleware approaches", func(cfg Config, w io.Writer) error {
			Table2().Fprint(w)
			return nil
		}},
		{"fig5", "preliminary: mean response time vs load (light/medium/heavy bands)", func(cfg Config, w io.Writer) error {
			t, err := Fig5(cfg, nil)
			if err != nil {
				return err
			}
			t.Fprint(w)
			return nil
		}},
		{"fig6", "migration time by workload and strategy; B-CON N/A at heavy", func(cfg Config, w io.Writer) error {
			t, err := Fig6(cfg, nil)
			if err != nil {
				return err
			}
			t.Fprint(w)
			return nil
		}},
		{"fig7", "response-time timeline across a Madeus migration (heavy load)", runTimeline},
		{"fig8", "throughput timeline across a Madeus migration (same run as fig7)", runTimeline},
		{"table3", "database size vs items and EBs", runFig9Table3},
		{"fig9", "Madeus migration time vs database size (same run as table3)", runFig9Table3},
		{"case1", "multi-tenant hot spot: migrate the HEAVY tenant (Figs 10-13)", func(cfg Config, w io.Writer) error {
			res, err := Case1(cfg)
			if err != nil {
				return err
			}
			printMultiTenant(res, w)
			return nil
		}},
		{"case2", "multi-tenant hot spot: migrate the LIGHT tenant (Figs 14-19)", func(cfg Config, w io.Writer) error {
			res, err := Case2(cfg)
			if err != nil {
				return err
			}
			printMultiTenant(res, w)
			return nil
		}},
		{"mixes", "TPC-W mixes compared at medium load (extra, not a paper figure)", func(cfg Config, w io.Writer) error {
			t, err := Mixes(cfg)
			if err != nil {
				return err
			}
			t.Fprint(w)
			return nil
		}},
		{"ablation-groupcommit", "Madeus with slave group commit disabled", func(cfg Config, w io.Writer) error {
			t, err := AblationGroupCommit(cfg)
			if err != nil {
				return err
			}
			t.Fprint(w)
			return nil
		}},
		{"convergence", "backpressure ablation: heavy-write migration, pacing off vs on (extra, not a paper figure)", func(cfg Config, w io.Writer) error {
			t, err := Convergence(cfg)
			if err != nil {
				return err
			}
			t.Fprint(w)
			return nil
		}},
		{"recovery", "crash-recovery ablation: recovery time and replayed WAL bytes vs checkpoint interval (extra, not a paper figure)", func(cfg Config, w io.Writer) error {
			t, err := Recovery(cfg)
			if err != nil {
				return err
			}
			t.Fprint(w)
			return nil
		}},
		{"ablation-overhead", "middleware worker overhead in normal processing", func(cfg Config, w io.Writer) error {
			t, err := AblationMiddlewareOverhead(cfg)
			if err != nil {
				return err
			}
			t.Fprint(w)
			return nil
		}},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

func runTimeline(cfg Config, w io.Writer) error {
	res, err := Figs7and8(cfg)
	if err != nil {
		return err
	}
	res.Table.Fprint(w)
	fmt.Fprintf(w, "  migration report: %s\n", res.Report)
	printMigrationTimeline(res.Report, w)
	printHistoryCurve("tenantA", w)
	fmt.Fprintln(w)
	return nil
}

// printMigrationTimeline renders the event-tracer view of the migration:
// the Step 1-4 spans (with the exact Step-4 suspension window) and the
// periodic lag/debt samples recorded during propagation.
func printMigrationTimeline(rep *core.Report, w io.Writer) {
	if rep == nil || len(rep.Timeline) == 0 {
		return
	}
	fmt.Fprintln(w, "  migration timeline:")
	for _, e := range rep.Timeline {
		fmt.Fprintf(w, "    %s\n", e)
	}
}

// printHistoryCurve renders the middleware's sampled time series for one
// tenant: the same lag/debt/throughput curve the fig7/fig8 tables derive from
// the workload recorder, but as observed by the obs.History sampler. Skipped
// silently when the sampler recorded nothing (sampler paused or run too short).
func printHistoryCurve(tenant string, w io.Writer) {
	samples := obs.Hist.Last(tenant, -1)
	if len(samples) == 0 {
		return
	}
	stats := obs.Summarize(samples)
	fmt.Fprintf(w, "  history curve (%d samples, lag avg %.1f max %d, debt avg %.1f max %d, ops/s avg %.1f max %d):\n",
		len(samples),
		stats.Lag.Avg, stats.Lag.Max,
		stats.Debt.Avg, stats.Debt.Max,
		stats.OpsPerSec.Avg, stats.OpsPerSec.Max)
	t0 := samples[0].At
	for _, s := range samples {
		fmt.Fprintf(w, "    t=%6.1fs lag=%-6d debt=%-8d ops/s=%-8.1f pace=%-10s ssl=%-8d sessions=%d\n",
			s.At.Sub(t0).Seconds(), s.Lag, s.Debt, s.OpsPerSec, s.PaceDelay, s.SSLBytes, s.Sessions)
	}
}

func runFig9Table3(cfg Config, w io.Writer) error {
	t3, f9, err := Fig9Table3(cfg, nil)
	if err != nil {
		return err
	}
	t3.Fprint(w)
	f9.Fprint(w)
	return nil
}

func printMultiTenant(res *MultiTenantResult, w io.Writer) {
	res.Summary.Fprint(w)
	for _, tn := range []string{"tenantA", "tenantB", "tenantC"} {
		if ts, ok := res.Series[tn]; ok {
			ts.Fprint(w)
		}
	}
	fmt.Fprintf(w, "  migration report: %s\n", res.Report)
	printMigrationTimeline(res.Report, w)
	fmt.Fprintln(w)
}

// RunByID executes one experiment.
func RunByID(id string, cfg Config, w io.Writer) error {
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Run(cfg, w)
		}
	}
	return fmt.Errorf("bench: unknown experiment %q", id)
}
