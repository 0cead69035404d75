package main

import (
	"context"
	"strings"

	"madeus/internal/engine"
	"madeus/internal/metrics"
	"madeus/internal/tpcw"
)

// recorder is an Execer that executes nothing: it keeps the EB's statements,
// one slice per interaction, and ends the EB after n interactions.
type recorder struct {
	n      int
	cancel context.CancelFunc
	out    [][]string
}

func (r *recorder) Exec(sql string) (*engine.Result, error) {
	if sql == "BEGIN" {
		r.out = append(r.out, nil)
	}
	last := len(r.out) - 1
	r.out[last] = append(r.out[last], sql)
	if sql == "COMMIT" {
		if len(r.out) == r.n {
			r.cancel()
		}
		return &engine.Result{Tag: "COMMIT"}, nil
	}
	return &engine.Result{}, nil
}

// record returns the first n interactions the workload's EB number id
// generates from seed: the workload's own statement stream, for the probes to
// replay against one layer at a time.
func record(wl workload, seed int64, id, n int) [][]string {
	ctx, cancel := context.WithCancel(context.Background())
	r := &recorder{n: n, cancel: cancel}
	_ = newEB(wl, id, seed).Run(ctx, r, idleRecorder()) // the recorder cannot fail
	return r.out
}

// newEB is the workload's zero-think emulated browser number id.
func newEB(wl workload, id int, seed int64) *tpcw.EB {
	return &tpcw.EB{ID: id, Mix: tpcw.Mix{Name: wl.Name, UpdatePct: wl.UpdatePct}, Scale: wl.Scale, Seed: seed}
}

// idleRecorder is the recorder an EB insists on, closed so that it keeps
// nothing: the harness does its own accounting and must add no
// per-interaction allocation of its own to alloc_kb_per_int.
func idleRecorder() *metrics.Recorder {
	rec := metrics.NewRecorder()
	rec.Close()
	return rec
}

// stmtClass buckets for the probes.
const (
	clsRO       = iota // point SELECT by primary key
	clsScan            // SELECT without a key predicate: Search, BestSellers
	clsRW              // UPDATE, INSERT, DELETE
	clsCommitRW        // COMMIT of an interaction that wrote
	clsOther           // BEGIN, COMMIT of a read-only interaction
	nClasses
)

func classOf(sql string, wrote bool) int {
	switch sql[0] {
	case 'S':
		if strings.Contains(sql, "_id = ") {
			return clsRO
		}
		return clsScan
	case 'B':
		return clsOther
	case 'C':
		if wrote {
			return clsCommitRW
		}
		return clsOther
	}
	return clsRW
}
