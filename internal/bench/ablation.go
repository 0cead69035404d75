package bench

import (
	"context"
	"errors"
	"fmt"

	"madeus/internal/cluster"
	"madeus/internal/core"
	"madeus/internal/flow"
	"madeus/internal/metrics"
	"madeus/internal/tpcw"
	"madeus/internal/wal"
)

// AblationGroupCommit isolates the CON-COM mechanism (DESIGN.md ablation
// list): the same Madeus migration against a destination whose WAL group
// commit is disabled. Without group commit the concurrent commit
// propagation loses most of its advantage — each propagated commit pays a
// full fsync, as B-CON always does.
func AblationGroupCommit(cfg Config) (*Table, error) {
	t := &Table{
		Title:  "Ablation: slave group commit on vs off (Madeus, heavy load)",
		Header: []string{"slave WAL", "migration", "propagate", "max commit group"},
	}
	for _, serial := range []bool{false, true} {
		mw, err := core.New(core.Options{Flow: flow.Config{Deadline: cfg.Deadline}})
		if err != nil {
			return nil, err
		}
		srcOpts := cfg.engineOptions()
		dstOpts := cfg.engineOptions()
		if serial {
			dstOpts.WAL.Mode = wal.SerialCommit
		}
		src, err := cluster.NewNode("node0", cluster.NodeOptions{Engine: srcOpts})
		if err != nil {
			mw.Close()
			return nil, err
		}
		dst, err := cluster.NewNode("node1", cluster.NodeOptions{Engine: dstOpts})
		if err != nil {
			src.Close()
			mw.Close()
			return nil, err
		}
		mw.AddNode(src)
		mw.AddNode(dst)
		h := &Harness{cfg: cfg, MW: mw, Nodes: []*cluster.Node{src, dst}}

		scale := tpcw.ScaleFor(100000, PaperLightEBs, cfg.RowFactor)
		if err := h.Provision("tenantA", "node0", scale); err != nil {
			h.Close()
			return nil, err
		}
		rep, _, err := h.MigrateUnderLoad("tenantA", "node1", cfg.EBs(PaperHeavyEBs),
			tpcw.Ordering, scale, core.MigrateOptions{Strategy: core.Madeus})
		h.Close()
		mode := "group commit"
		if serial {
			mode = "serial fsync"
		}
		switch {
		case errors.Is(err, flow.ErrDeadline):
			t.AddRow(mode, "N/A", "-", "-")
		case err != nil:
			return nil, err
		default:
			t.AddRow(mode, fmtDur(rep.Total()), fmtDur(rep.PropagateTime),
				fmt.Sprint(rep.Propagation.MaxGroup))
		}
	}
	t.Note("disabling the slave's group commit removes the CON-COM benefit Madeus relies on (Sec 4.1)")
	return t, nil
}

// AblationMiddlewareOverhead measures the worker path's cost in normal
// processing (no migration): the same workload through Madeus versus
// directly against the DBMS node. The paper argues the middleware critical
// region costs little outside migrations (Sec 5.4).
func AblationMiddlewareOverhead(cfg Config) (*Table, error) {
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
		Title:  "Ablation: middleware worker overhead (medium load, ordering mix)",
		Header: []string{"path", "mean RT", "p95 RT", "tput/s"},
	}
	// Through the middleware.
	viaMW, err := h.MeasureLoad("tenantA", cfg.EBs(PaperMediumEBs), tpcw.Ordering, scale)
	if err != nil {
		return nil, err
	}
	t.AddRow("through Madeus", fmtDur(viaMW.Mean), fmtDur(viaMW.P95),
		fmt.Sprintf("%.0f", viaMW.Throughput))

	// Directly against the node.
	direct, err := measureDirect(cfg, h.Nodes[0], "tenantA", cfg.EBs(PaperMediumEBs), scale)
	if err != nil {
		return nil, err
	}
	t.AddRow("direct to node", fmtDur(direct.Mean), fmtDur(direct.P95),
		fmt.Sprintf("%.0f", direct.Throughput))
	if direct.Mean > 0 {
		t.Note("overhead: %.1f%% on mean response time",
			100*(float64(viaMW.Mean)-float64(direct.Mean))/float64(direct.Mean))
	}
	return t, nil
}

// measureDirect runs the same EB fleet straight at the node, bypassing the
// middleware.
func measureDirect(cfg Config, node *cluster.Node, tenant string, ebs int, scale tpcw.Scale) (metrics.Summary, error) {
	rec := metrics.NewRecorder()
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Warm+cfg.Measure)
	defer cancel()
	err := tpcw.RunFleet(ctx, ebs, tpcw.Ordering, scale, cfg.Think, func() (tpcw.Execer, error) {
		return node.Connect(tenant)
	}, rec)
	if err != nil {
		return metrics.Summary{}, err
	}
	return rec.Summarize(), nil
}
