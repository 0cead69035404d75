package bench

import (
	"errors"
	"fmt"
	"time"

	"madeus/internal/core"
	"madeus/internal/flow"
	"madeus/internal/metrics"
	"madeus/internal/tpcw"
)

// Table2 renders the middleware capability matrix (paper Table 2).
func Table2() *Table {
	t := &Table{
		Title:  "Table 2: difference among middleware approaches",
		Header: []string{"", "MIN", "CON-FW", "CON-COM"},
	}
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "-"
	}
	for _, s := range core.Strategies() {
		c := s.Capabilities()
		t.AddRow(s.String(), mark(c.Min), mark(c.ConFW), mark(c.ConCom))
	}
	return t
}

// Fig5 reproduces the preliminary experiment (Fig 5): mean response time of
// one tenant versus load, classifying light / medium / heavy bands. levels
// are paper-scale EB counts; nil selects the paper's 100..1000.
func Fig5(cfg Config, levels []int) (*Table, error) {
	if levels == nil {
		levels = []int{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	}
	h, err := NewHarness(cfg, 1)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	scale := tpcw.ScaleFor(100000, PaperLightEBs, cfg.RowFactor)
	if err := h.Provision("tenantA", "node0", scale); err != nil {
		return nil, err
	}

	t := &Table{
		Title:  "Fig 5: preliminary experiment — mean response time vs load (ordering mix)",
		Header: []string{"EBs(paper)", "EBs(run)", "mean RT", "p95 RT", "tput/s", "band"},
	}
	var baseline time.Duration
	for _, paperEBs := range levels {
		sum, err := h.MeasureLoad("tenantA", cfg.EBs(paperEBs), tpcw.Ordering, scale)
		if err != nil {
			return nil, err
		}
		if baseline == 0 && sum.Mean > 0 {
			baseline = sum.Mean
		}
		band := classify(sum.Mean, baseline)
		t.AddRow(fmt.Sprint(paperEBs), fmt.Sprint(cfg.EBs(paperEBs)),
			fmtDur(sum.Mean), fmtDur(sum.P95), fmt.Sprintf("%.0f", sum.Throughput), band)
	}
	t.Note("paper: <100 ms light (100-300 EBs), <2 s medium (400-600), >2 s heavy (700-1000)")
	t.Note("bands here are relative to the lightest level: light <5x, medium <25x, heavy >=25x")
	return t, nil
}

// classify assigns the scaled analogue of the paper's 2-second-rule bands:
// the paper's thresholds (100 ms, 2 s) sit at roughly 4x and 20x its
// lightest mean response time.
func classify(mean, baseline time.Duration) string {
	if baseline == 0 {
		return "light"
	}
	switch ratio := float64(mean) / float64(baseline); {
	case ratio < 5:
		return "light"
	case ratio < 25:
		return "medium"
	default:
		return "heavy"
	}
}

// Fig6 reproduces the migration-time comparison (Fig 6): for each workload
// level, migrate an 800 MB-equivalent tenant with each strategy. A strategy
// whose slave cannot catch up reports N/A, as B-CON does in the paper.
func Fig6(cfg Config, levels []int) (*Table, error) {
	if levels == nil {
		levels = []int{PaperLightEBs, PaperMediumEBs, PaperHeavyEBs}
	}
	t := &Table{
		Title:  "Fig 6: migration time by workload and strategy (800 MB-equivalent DB)",
		Header: []string{"EBs(paper)", "B-ALL", "B-MIN", "B-CON", "Madeus"},
	}
	scale := tpcw.ScaleFor(100000, PaperLightEBs, cfg.RowFactor)
	for _, paperEBs := range levels {
		row := []string{fmt.Sprint(paperEBs)}
		for _, strat := range []core.Strategy{core.BAll, core.BMin, core.BCon, core.Madeus} {
			total, err := migrateOnce(cfg, scale, paperEBs, strat)
			switch {
			case errors.Is(err, flow.ErrDeadline):
				row = append(row, "N/A")
			case err != nil:
				return nil, fmt.Errorf("bench: fig6 %s at %d EBs: %w", strat, paperEBs, err)
			default:
				row = append(row, fmtDur(total))
			}
		}
		t.AddRow(row...)
	}
	t.Note("paper at 700 EBs: B-ALL 959 s, B-MIN 332 s, B-CON N/A, Madeus 101 s")
	t.Note("N/A = slave could not catch up within the %v deadline", cfg.Deadline)
	return t, nil
}

// migrateOnce runs one fresh cluster + load + migration and returns the
// total migration time.
func migrateOnce(cfg Config, scale tpcw.Scale, paperEBs int, strat core.Strategy) (time.Duration, error) {
	h, err := NewHarness(cfg, 2)
	if err != nil {
		return 0, err
	}
	defer h.Close()
	if err := h.Provision("tenantA", "node0", scale); err != nil {
		return 0, err
	}
	rep, _, err := h.MigrateUnderLoad("tenantA", "node1", cfg.EBs(paperEBs),
		tpcw.Ordering, scale, core.MigrateOptions{Strategy: strat})
	if err != nil {
		if rep != nil && rep.Failed {
			return 0, rep.Err
		}
		return 0, err
	}
	return rep.Total(), nil
}

// TimelineResult carries the Fig 7/8 series plus the migration window.
type TimelineResult struct {
	Table    *Table
	Report   *core.Report
	MigStart time.Duration // offset of migration start within the series
	MigEnd   time.Duration
}

// Figs7and8 reproduces the response-time (Fig 7) and throughput (Fig 8)
// timelines of one heavy-loaded tenant across a Madeus migration.
func Figs7and8(cfg Config) (*TimelineResult, error) {
	h, err := NewHarness(cfg, 2)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	scale := tpcw.ScaleFor(100000, PaperLightEBs, cfg.RowFactor)
	if err := h.Provision("tenantA", "node0", scale); err != nil {
		return nil, err
	}

	w := h.StartWorkload("tenantA", cfg.EBs(PaperHeavyEBs), tpcw.Ordering, scale)
	time.Sleep(cfg.Warm + cfg.Measure/2)
	migStart := time.Since(w.Rec.Start())
	rep, err := h.MW.Migrate("tenantA", "node1", core.MigrateOptions{Strategy: core.Madeus})
	migEnd := time.Since(w.Rec.Start())
	if err != nil {
		w.Stop()
		return nil, err
	}
	time.Sleep(cfg.Measure / 2)
	if err := w.Stop(); err != nil {
		return nil, err
	}

	width := cfg.Measure / 20
	if width < 20*time.Millisecond {
		width = 20 * time.Millisecond
	}
	t := &Table{
		Title:  "Fig 7/8: response time and throughput around a Madeus migration (heavy load)",
		Header: []string{"t", "mean RT", "max RT", "tput/s", "phase"},
	}
	for _, b := range w.Rec.Series(width) {
		if b.Count == 0 {
			continue
		}
		phase := "normal"
		if b.Start+width > migStart && b.Start < migEnd {
			phase = "MIGRATING"
		}
		if b.Start >= migEnd {
			phase = "after"
		}
		t.AddRow(fmtDur(b.Start), fmtDur(b.Mean), fmtDur(b.Max),
			fmt.Sprintf("%.0f", b.Throughput), phase)
	}
	t.Note("migration %v -> %v (%v total); paper: small dips at start (MTS critical region) and end (switch-over)",
		fmtDur(migStart), fmtDur(migEnd), fmtDur(rep.Total()))
	return &TimelineResult{Table: t, Report: rep, MigStart: migStart, MigEnd: migEnd}, nil
}

// Fig9Table3 reproduces Table 3 (database sizes) and Fig 9 (Madeus
// migration time vs database size under heavy load).
func Fig9Table3(cfg Config, sizes []struct{ Items, EBs int }) (*Table, *Table, error) {
	if sizes == nil {
		sizes = []struct{ Items, EBs int }{
			{100000, 100}, {500000, 500}, {1000000, 1000}, {2000000, 2000},
		}
	}
	t3 := &Table{
		Title:  "Table 3: database size (scaled 1/" + fmt.Sprint(cfg.RowFactor) + ")",
		Header: []string{"items(paper)", "EBs(paper)", "paper size", "rows(run)", "run size"},
	}
	f9 := &Table{
		Title:  "Fig 9: Madeus migration time vs database size (heavy load)",
		Header: []string{"paper size", "migration", "snapshot", "restore", "propagate"},
	}
	paperSizes := []string{"0.8 GB", "3.1 GB", "6.2 GB", "12 GB"}
	for i, sz := range sizes {
		scale := tpcw.ScaleFor(sz.Items, sz.EBs, cfg.RowFactor)
		label := fmt.Sprintf("size%d", i)
		if i < len(paperSizes) {
			label = paperSizes[i]
		}
		t3.AddRow(fmt.Sprint(sz.Items), fmt.Sprint(sz.EBs), label,
			fmt.Sprint(scale.Items+scale.Customers+scale.Authors),
			fmt.Sprintf("%.0f KB", float64(scale.EstimatedBytes())/1024))

		h, err := NewHarness(cfg, 2)
		if err != nil {
			return nil, nil, err
		}
		if err := h.Provision("tenantA", "node0", scale); err != nil {
			h.Close()
			return nil, nil, err
		}
		rep, _, err := h.MigrateUnderLoad("tenantA", "node1", cfg.EBs(PaperHeavyEBs),
			tpcw.Ordering, scale, core.MigrateOptions{Strategy: core.Madeus})
		h.Close()
		if err != nil {
			return nil, nil, err
		}
		f9.AddRow(label, fmtDur(rep.Total()), fmtDur(rep.SnapshotTime),
			fmtDur(rep.RestoreTime), fmtDur(rep.PropagateTime))
	}
	f9.Note("paper: 101 s, 496 s, 1365 s, 3536 s — roughly linear growth in size")
	return t3, f9, nil
}

// MultiTenantResult is the outcome of a Sec 5.6 case study.
type MultiTenantResult struct {
	Summary *Table
	Series  map[string]*Table // per-tenant timelines (Figs 10-19)
	Report  *core.Report
}

// Case1 migrates the HEAVY tenant B off a hot spot (Figs 10-13); Case2
// migrates the LIGHT tenant C instead (Figs 14-19).
func Case1(cfg Config) (*MultiTenantResult, error) { return multiTenant(cfg, "tenantB") }

// Case2 is the light-tenant counterpart of Case1.
func Case2(cfg Config) (*MultiTenantResult, error) { return multiTenant(cfg, "tenantC") }

func multiTenant(cfg Config, victim string) (*MultiTenantResult, error) {
	h, err := NewHarness(cfg, 2)
	if err != nil {
		return nil, err
	}
	defer h.Close()

	scale := tpcw.ScaleFor(100000, PaperLightEBs, cfg.RowFactor)
	tenants := []string{"tenantA", "tenantB", "tenantC"}
	ebs := map[string]int{
		"tenantA": cfg.EBs(200), // light
		"tenantB": cfg.EBs(PaperHeavyEBs),
		"tenantC": cfg.EBs(200), // light
	}
	for _, tn := range tenants {
		if err := h.Provision(tn, "node0", scale); err != nil {
			return nil, err
		}
	}
	loads := make(map[string]*Workload, len(tenants))
	for _, tn := range tenants {
		loads[tn] = h.StartWorkload(tn, ebs[tn], tpcw.Ordering, scale)
	}

	time.Sleep(cfg.Warm + cfg.Measure/2)
	migStart := time.Since(loads[victim].Rec.Start())
	rep, err := h.MW.Migrate(victim, "node1", core.MigrateOptions{Strategy: core.Madeus})
	migEnd := time.Since(loads[victim].Rec.Start())
	if err != nil {
		for _, w := range loads {
			w.Stop()
		}
		return nil, err
	}
	time.Sleep(cfg.Measure / 2)
	for _, w := range loads {
		if err := w.Stop(); err != nil {
			return nil, err
		}
	}

	res := &MultiTenantResult{Report: rep, Series: make(map[string]*Table)}
	caseName := "Case 1 (migrate heavy tenant B)"
	if victim == "tenantC" {
		caseName = "Case 2 (migrate light tenant C)"
	}
	sum := &Table{
		Title: fmt.Sprintf("Sec 5.6 %s: per-tenant response time and throughput", caseName),
		Header: []string{"tenant", "load", "RT before", "RT during", "RT after",
			"tput before", "tput during", "tput after"},
	}
	width := 100 * time.Millisecond
	for _, tn := range tenants {
		rec := loads[tn].Rec
		// Skip the fleet warm-up transient in the "before" window.
		before := window(rec, width, cfg.Warm, migStart)
		during := window(rec, width, migStart, migEnd)
		after := window(rec, width, migEnd, time.Duration(1<<62))
		role := "light"
		if tn == "tenantB" {
			role = "heavy"
		}
		if tn == victim {
			role += "*"
		}
		sum.AddRow(tn, role,
			fmtDur(before.Mean), fmtDur(during.Mean), fmtDur(after.Mean),
			fmt.Sprintf("%.0f", before.Throughput), fmt.Sprintf("%.0f", during.Throughput),
			fmt.Sprintf("%.0f", after.Throughput))

		// Full timeline table (Figures 10-19 series).
		ts := &Table{
			Title:  fmt.Sprintf("%s — %s timeline", caseName, tn),
			Header: []string{"t", "mean RT", "tput/s", "phase"},
		}
		for _, b := range rec.Series(width) {
			if b.Count == 0 {
				continue
			}
			phase := "before"
			if b.Start+width > migStart && b.Start < migEnd {
				phase = "MIGRATING"
			}
			if b.Start >= migEnd {
				phase = "after"
			}
			ts.AddRow(fmtDur(b.Start), fmtDur(b.Mean), fmt.Sprintf("%.0f", b.Throughput), phase)
		}
		res.Series[tn] = ts
	}
	sum.Note("migration of %s took %v (%v -> %v); * marks the migrated tenant", victim,
		fmtDur(rep.Total()), fmtDur(migStart), fmtDur(migEnd))
	sum.Note("paper: migrating heavy B takes ~100 s and relieves the hot spot; migrating light C takes ~130 s and does not")
	res.Summary = sum
	return res, nil
}

// windowStats aggregates series buckets within [from, to).
type windowStats struct {
	Mean       time.Duration
	Throughput float64
}

func window(rec *metrics.Recorder, width time.Duration, from, to time.Duration) windowStats {
	var total time.Duration
	count := 0
	buckets := 0
	for _, b := range rec.Series(width) {
		if b.Start < from || b.Start >= to {
			continue
		}
		total += b.Mean * time.Duration(b.Count)
		count += b.Count
		buckets++
	}
	ws := windowStats{}
	if count > 0 {
		ws.Mean = total / time.Duration(count)
	}
	if buckets > 0 {
		ws.Throughput = float64(count) / (time.Duration(buckets) * width).Seconds()
	}
	return ws
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// Mixes compares the three TPC-W profiles (Sec 5.1) at the paper's medium
// load: the update ratio drives both the commit pressure and the syncset
// volume a migration must move. Not a paper figure; included because the
// paper's Sec 5.1 motivates choosing the ordering mix as the hardest case.
func Mixes(cfg Config) (*Table, error) {
	h, err := NewHarness(cfg, 2)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	scale := tpcw.ScaleFor(100000, PaperLightEBs, cfg.RowFactor)
	if err := h.Provision("tenantA", "node0", scale); err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "TPC-W mixes at medium load: response time and Madeus migration",
		Header: []string{"mix", "update%", "mean RT", "tput/s", "migration", "syncsets"},
	}
	for _, mix := range tpcw.Mixes() {
		sum, err := h.MeasureLoad("tenantA", cfg.EBs(PaperMediumEBs), mix, scale)
		if err != nil {
			return nil, err
		}
		rep, _, err := h.MigrateUnderLoad("tenantA", h.otherNode(), cfg.EBs(PaperMediumEBs),
			mix, scale, core.MigrateOptions{Strategy: core.Madeus})
		if err != nil {
			return nil, err
		}
		t.AddRow(mix.Name, fmt.Sprint(mix.UpdatePct), fmtDur(sum.Mean),
			fmt.Sprintf("%.0f", sum.Throughput), fmtDur(rep.Total()),
			fmt.Sprint(rep.Propagation.Syncsets))
	}
	t.Note("ordering (50%% updates) produces the most syncsets — the paper's \"more severe for replication\" choice")
	return t, nil
}
