package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one client-side span, recorded around the calls into the system
// from the benchmark's own files and kept in memory until the run ends.
// An interaction span runs from the end of the client's previous interaction
// to its COMMIT's return, so its self time — the span minus its statement
// children — is the EB's statement generation plus this harness.
type span struct {
	parent     int32 // index of the interaction span in the same client; -1 for an interaction
	kind       byte  // 'i' for an interaction, else the statement's first byte
	update     bool  // the interaction (or, for a statement, its interaction so far) wrote
	n          int32 // interaction: its commit number, 0 if it rolled back
	start, end int64
}

func (c *client) openInteraction() {
	start := c.prevEnd
	if start == 0 {
		start = c.begin
	}
	c.cur = len(c.spans)
	c.spans = append(c.spans, span{parent: -1, kind: 'i', start: start})
}

func (c *client) stmtSpan(kind byte, start, end int64) {
	c.spans = append(c.spans, span{parent: int32(c.cur), kind: kind, update: c.update, start: start, end: end})
}

// closeInteraction ends the open interaction span, if this interaction was
// traced, and books the interaction's wall time to the traced or untraced
// side of the overhead comparison. n is 0 for a rolled-back interaction.
func (c *client) closeInteraction(n int, end int64) {
	if c.tracing {
		s := &c.spans[c.cur]
		s.end, s.n, s.update = end, int32(n), c.update
	}
	if c.f.sz.phaseOf(n) == "steady" && c.prevEnd > 0 {
		if c.tracing {
			c.onTime += end - c.prevEnd
			c.onN++
		} else {
			c.offTime += end - c.prevEnd
			c.offN++
		}
	}
	c.prevEnd = end
	c.tracing = false
}

// stmtClass names a statement span's class.
func stmtClass(kind byte) string {
	switch kind {
	case 'B':
		return "BEGIN"
	case 'C':
		return "COMMIT"
	case 'R':
		return "ROLLBACK"
	case 'S':
		return "ro"
	}
	return "rw"
}

// spanJSON is the trace file's span record. Spans of one interaction, or of
// one migration, share Trace.
type spanJSON struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 for a root
	Trace   int     `json:"trace"`
	Name    string  `json:"name"`
	Class   string  `json:"class,omitempty"`
	Phase   string  `json:"phase,omitempty"`
	Client  int     `json:"client,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// migrationSpans derives a migration's span tree from its Report alone. The
// pipelined Step 1 and Step 2 overlap: both start when the drain ends.
func migrationSpans(m migration, epoch time.Time) []spanJSON {
	rep := m.rep
	us := func(t time.Time) float64 { return float64(t.Sub(epoch)) / 1e3 }
	dump := rep.Start.Add(rep.DrainTime)
	sw := rep.End.Add(-rep.SwitchTime)
	root := spanJSON{Name: "migration", Class: rep.Source + "->" + rep.Dest, StartUS: us(rep.Start), EndUS: us(rep.End)}
	return []spanJSON{
		root,
		{Name: "step1.drain", StartUS: us(rep.Start), EndUS: us(dump)},
		{Name: "step1.snapshot", StartUS: us(dump), EndUS: us(dump.Add(rep.SnapshotTime))},
		{Name: "step2.restore", StartUS: us(dump), EndUS: us(dump.Add(rep.RestoreTime))},
		{Name: "step3.propagate", StartUS: us(sw.Add(-rep.PropagateTime)), EndUS: us(sw)},
		{Name: "step4.switch", StartUS: us(sw), EndUS: us(rep.End)},
	}
}

// writeTrace writes every recorded span to out/<workload>.trace.json.
func writeTrace(dir string, o *outcome) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, o.wl.Name+".trace.json")
	file, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(file)
	enc := json.NewEncoder(w)
	put := func(v any) {
		if err == nil {
			err = enc.Encode(v)
		}
	}
	put(map[string]any{"workload": o.wl.Name, "seed": o.seed, "sizes": o.sz, "unit": "us since the fleet's epoch", "format": "one span per line"})
	id := 0
	for ci, c := range o.f.clients {
		base := id
		for _, s := range c.spans {
			id++
			j := spanJSON{ID: id, Client: ci, StartUS: float64(s.start) / 1e3, EndUS: float64(s.end) / 1e3}
			if s.kind == 'i' {
				j.Trace, j.Name, j.Class, j.Phase = id, "interaction", "ro", o.sz.phaseOf(int(s.n))
				if s.update {
					j.Class = "rw"
				}
			} else {
				j.Parent = base + int(s.parent) + 1
				j.Trace, j.Name, j.Class = j.Parent, "stmt", stmtClass(s.kind)
			}
			put(j)
		}
	}
	for _, m := range o.migs {
		root := id + 1
		for i, j := range migrationSpans(m, o.f.epoch) {
			id++
			j.ID, j.Trace = id, root
			if i > 0 {
				j.Parent = root
			}
			put(j)
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	return path, err
}
