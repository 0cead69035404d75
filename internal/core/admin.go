package core

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"madeus/internal/engine"
	"madeus/internal/fault"
	"madeus/internal/flow"
	"madeus/internal/obs"
	"madeus/internal/sqlmini"
	"madeus/internal/wire"
)

// AdminDB is the pseudo-database name operators connect to for control
// operations (the channel cmd/madeusctl uses).
const AdminDB = "_admin"

// adminConn serves operator commands over the ordinary wire protocol:
//
//	ADD TENANT <tenant> ON <node>
//	MIGRATE <tenant> TO <node> [STRATEGY <B-ALL|B-MIN|B-CON|Madeus>]
//	REMOVE TENANT <tenant>
//	STATUS
//	STATS [tenant]
//	EVENTS [n]
//	EVENTS SINCE <seq> [tenant]
//	TRACE <tenant> [n]
//	FAULT LIST | RESET | SEED <n>
//	FAULT ENABLE <site> <ERROR|DROP|HANG> [times]
//	FAULT ENABLE <site> DELAY <duration> [times]
//	FAULT ENABLE <site> P <probability>
//	FAULT DISABLE <site> | RELEASE <site>
//	FLOW
//	FLOW SET <knob> <value>
//
// FAULT drives the failpoint registry (internal/fault) for chaos drills;
// it errors unless the daemon was built with -tags faultinject. FLOW
// lists the backpressure knobs (internal/flow) with the layer's live
// counters; FLOW SET retunes one knob at runtime (re-validated).
type adminConn struct {
	mw *Middleware
}

// Close implements wire.Conn.
func (a *adminConn) Close() {}

// Exec implements wire.Conn for the admin channel. cmd is lent for the
// call; run keeps fields of it (strings.Fields aliases its input) as
// tenant, node and site names, so it gets a copy.
func (a *adminConn) Exec(cmd string, dst []byte) ([]byte, error) {
	res, err := a.run(strings.Clone(cmd))
	if err != nil {
		return dst, err
	}
	return wire.AppendResult(dst, res), nil
}

// run executes one operator command.
func (a *adminConn) run(cmd string) (*engine.Result, error) {
	fields := strings.Fields(cmd)
	upper := make([]string, len(fields))
	for i, f := range fields {
		upper[i] = strings.ToUpper(f)
	}
	switch {
	case len(fields) >= 2 && upper[0] == "ADD" && upper[1] == "TENANT":
		if len(fields) != 5 || upper[3] != "ON" {
			return nil, fmt.Errorf("core: usage: ADD TENANT <tenant> ON <node>")
		}
		if err := a.mw.ProvisionTenant(fields[2], fields[4]); err != nil {
			return nil, err
		}
		return &engine.Result{Tag: "ADD TENANT"}, nil

	case len(fields) >= 1 && upper[0] == "MIGRATE":
		if len(fields) < 4 || upper[2] != "TO" {
			return nil, fmt.Errorf("core: usage: MIGRATE <tenant> TO <node> [STRATEGY <name>]")
		}
		opts := MigrateOptions{Strategy: Madeus}
		if len(fields) >= 6 && upper[4] == "STRATEGY" {
			st, err := ParseStrategy(fields[5])
			if err != nil {
				return nil, err
			}
			opts.Strategy = st
		} else if len(fields) != 4 {
			return nil, fmt.Errorf("core: usage: MIGRATE <tenant> TO <node> [STRATEGY <name>]")
		}
		rep, err := a.mw.Migrate(fields[1], fields[3], opts)
		if err != nil {
			return nil, err
		}
		return &engine.Result{
			Columns: []string{"report"},
			Rows:    [][]sqlmini.Value{{sqlmini.NewText(rep.String())}},
			Tag:     "MIGRATE",
		}, nil

	case len(fields) == 1 && upper[0] == "STATUS":
		res := &engine.Result{
			Columns: []string{"tenant", "node", "mlc", "state", "lag", "debt"},
			Tag:     "STATUS",
		}
		for _, name := range a.mw.Tenants() {
			t, ok := a.mw.Tenant(name)
			if !ok {
				continue
			}
			node, _ := t.Node()
			phase, lag, debt := t.Progress()
			res.Rows = append(res.Rows, []sqlmini.Value{
				sqlmini.NewText(name),
				sqlmini.NewText(node.BackendName()),
				sqlmini.NewInt(int64(t.MLC())),
				sqlmini.NewText(phase),
				sqlmini.NewInt(int64(lag)),
				sqlmini.NewInt(int64(debt)),
			})
		}
		return res, nil

	case len(fields) >= 1 && upper[0] == "STATS":
		switch len(fields) {
		case 1:
			return a.execStats()
		case 2:
			return a.execTenantStats(fields[1])
		}
		return nil, fmt.Errorf("core: usage: STATS [tenant]")

	case len(fields) >= 2 && upper[0] == "REMOVE" && upper[1] == "TENANT":
		if len(fields) != 3 {
			return nil, fmt.Errorf("core: usage: REMOVE TENANT <tenant>")
		}
		if err := a.mw.RemoveTenant(fields[2]); err != nil {
			return nil, err
		}
		return &engine.Result{Tag: "REMOVE TENANT"}, nil

	case len(fields) >= 2 && upper[0] == "EVENTS" && upper[1] == "SINCE":
		if len(fields) != 3 && len(fields) != 4 {
			return nil, fmt.Errorf("core: usage: EVENTS SINCE <seq> [tenant]")
		}
		seq, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("core: usage: EVENTS SINCE <seq> [tenant]")
		}
		tenant := ""
		if len(fields) == 4 {
			tenant = fields[3]
		}
		return renderEvents(obs.Trace.Since(seq, tenant)), nil

	case len(fields) >= 1 && upper[0] == "EVENTS":
		n := 50
		if len(fields) == 2 {
			v, err := strconv.Atoi(fields[1])
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("core: usage: EVENTS [n] (n > 0)")
			}
			n = v
		} else if len(fields) != 1 {
			return nil, fmt.Errorf("core: usage: EVENTS [n]")
		}
		return a.execEvents(n)

	case len(fields) >= 1 && upper[0] == "TRACE":
		n := 0
		switch len(fields) {
		case 2:
		case 3:
			v, err := strconv.Atoi(fields[2])
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("core: usage: TRACE <tenant> [n] (n > 0)")
			}
			n = v
		default:
			return nil, fmt.Errorf("core: usage: TRACE <tenant> [n]")
		}
		return a.execTrace(fields[1], n)

	case len(fields) >= 1 && upper[0] == "FAULT":
		return a.execFault(fields, upper)

	case len(fields) >= 1 && upper[0] == "FLOW":
		return a.execFlow(fields, upper)
	}
	return nil, fmt.Errorf("core: unknown admin command %q", cmd)
}

// execFault drives the failpoint registry over the admin channel.
func (a *adminConn) execFault(fields, upper []string) (*engine.Result, error) {
	if !fault.Enabled {
		return nil, fmt.Errorf("core: fault injection not compiled in (rebuild with -tags faultinject)")
	}
	if len(fields) < 2 {
		return nil, fmt.Errorf("core: usage: FAULT LIST|ENABLE|DISABLE|RELEASE|RESET|SEED ...")
	}
	switch upper[1] {
	case "LIST":
		res := &engine.Result{Columns: []string{"site", "hits", "fired"}, Tag: "FAULT"}
		for _, site := range fault.List() {
			res.Rows = append(res.Rows, []sqlmini.Value{
				sqlmini.NewText(site),
				sqlmini.NewInt(int64(fault.SiteHits(site))),
				sqlmini.NewInt(int64(fault.SiteFired(site))),
			})
		}
		return res, nil
	case "RESET":
		fault.Reset()
		return &engine.Result{Tag: "FAULT"}, nil
	case "SEED":
		if len(fields) != 3 {
			return nil, fmt.Errorf("core: usage: FAULT SEED <n>")
		}
		n, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("core: usage: FAULT SEED <n>")
		}
		fault.Seed(n)
		return &engine.Result{Tag: "FAULT"}, nil
	case "DISABLE", "RELEASE":
		if len(fields) != 3 {
			return nil, fmt.Errorf("core: usage: FAULT %s <site>", upper[1])
		}
		if upper[1] == "DISABLE" {
			fault.Disable(fields[2])
		} else {
			fault.Release(fields[2])
		}
		return &engine.Result{Tag: "FAULT"}, nil
	case "ENABLE":
		if len(fields) < 4 {
			return nil, fmt.Errorf("core: usage: FAULT ENABLE <site> <ERROR|DROP|HANG|DELAY dur|P prob> [times]")
		}
		site := fields[2]
		var p fault.Policy
		rest := fields[4:]
		switch upper[3] {
		case "ERROR":
			// zero-value policy: fail with ErrInjected
		case "DROP":
			p.Drop = true
		case "HANG":
			p.Hang = true
		case "DELAY":
			if len(rest) < 1 {
				return nil, fmt.Errorf("core: usage: FAULT ENABLE <site> DELAY <duration> [times]")
			}
			d, err := time.ParseDuration(rest[0])
			if err != nil {
				return nil, fmt.Errorf("core: bad DELAY duration %q: %v", rest[0], err)
			}
			p.Delay = d
			rest = rest[1:]
		case "P":
			if len(rest) != 1 {
				return nil, fmt.Errorf("core: usage: FAULT ENABLE <site> P <probability>")
			}
			prob, err := strconv.ParseFloat(rest[0], 64)
			if err != nil || prob < 0 || prob > 1 {
				return nil, fmt.Errorf("core: bad probability %q", rest[0])
			}
			p.P = prob
			rest = nil
		default:
			return nil, fmt.Errorf("core: unknown fault policy %q", fields[3])
		}
		if len(rest) == 1 {
			n, err := strconv.Atoi(rest[0])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("core: bad fire count %q", rest[0])
			}
			p.Times = n
		} else if len(rest) > 1 {
			return nil, fmt.Errorf("core: trailing arguments after fault policy: %v", rest[1:])
		}
		fault.Enable(site, p)
		return &engine.Result{Tag: "FAULT"}, nil
	}
	return nil, fmt.Errorf("core: unknown FAULT subcommand %q", fields[1])
}

// execFlow serves the backpressure surface: FLOW lists every knob plus
// the layer's live gauges/counters; FLOW SET retunes one knob (the new
// configuration is validated before it is installed, so a bad value
// leaves the running config untouched).
func (a *adminConn) execFlow(fields, upper []string) (*engine.Result, error) {
	gov := a.mw.Flow()
	switch {
	case len(fields) == 1:
		res := &engine.Result{Columns: []string{"knob", "value"}, Tag: "FLOW"}
		row := func(k, v string) {
			res.Rows = append(res.Rows, []sqlmini.Value{sqlmini.NewText(k), sqlmini.NewText(v)})
		}
		cfg := gov.Config()
		for _, k := range flow.KnobNames() {
			row(k, cfg.Knob(k))
		}
		row("sessions", strconv.FormatInt(flow.Sessions(), 10))
		row("admit_queue_depth", strconv.FormatInt(flow.AdmitQueueDepth(), 10))
		row("ssl_bytes", strconv.FormatInt(flow.SSLBytes(), 10))
		row("sheds", strconv.FormatUint(flow.Sheds(), 10))
		row("stalls", strconv.FormatUint(flow.Stalls(), 10))
		row("deadline_aborts", strconv.FormatUint(flow.DeadlineAborts(), 10))
		row("ssl_overflows", strconv.FormatUint(flow.Overflows(), 10))
		return res, nil
	case len(fields) == 4 && upper[1] == "SET":
		if err := gov.Set(strings.ToLower(fields[2]), fields[3]); err != nil {
			return nil, err
		}
		return &engine.Result{Tag: "FLOW"}, nil
	}
	return nil, fmt.Errorf("core: usage: FLOW | FLOW SET <knob> <value>")
}

// execStats renders the process-wide metric registry (STATS).
func (a *adminConn) execStats() (*engine.Result, error) {
	res := &engine.Result{Columns: []string{"metric", "value"}, Tag: "STATS"}
	for _, m := range obs.Default.Snapshot() {
		res.Rows = append(res.Rows, []sqlmini.Value{
			sqlmini.NewText(m.Name),
			sqlmini.NewText(m.Render()),
		})
	}
	return res, nil
}

// execTenantStats renders one tenant's live monitor (STATS <tenant>).
func (a *adminConn) execTenantStats(tenant string) (*engine.Result, error) {
	t, ok := a.mw.Tenant(tenant)
	if !ok {
		return nil, fmt.Errorf("core: unknown tenant %q", tenant)
	}
	mon := t.Monitor()
	res := &engine.Result{Columns: []string{"field", "value"}, Tag: "STATS"}
	row := func(k, v string) {
		res.Rows = append(res.Rows, []sqlmini.Value{sqlmini.NewText(k), sqlmini.NewText(v)})
	}
	row("tenant", tenant)
	row("node", mon.Node)
	row("mlc", strconv.FormatUint(mon.MLC, 10))
	row("state", mon.Phase)
	row("lag", strconv.Itoa(mon.Lag))
	row("debt", strconv.Itoa(mon.Debt))
	row("ssl_depth", strconv.Itoa(mon.SSLDepth))
	row("ssl_bytes", strconv.FormatInt(mon.SSLBytes, 10))
	row("pace_delay", mon.PaceDelay.String())
	row("active_txns", strconv.Itoa(mon.ActiveTxns))
	row("captured_ssbs", strconv.Itoa(mon.CapturedSSBs))
	row("captured_ops", strconv.Itoa(mon.CapturedOps))
	return res, nil
}

// eventDetail renders an event's duration and fields as one "k=v ..."
// string (the detail column of EVENTS/TRACE rows).
func eventDetail(e obs.Event) string {
	var detail strings.Builder
	if e.Dur > 0 {
		fmt.Fprintf(&detail, "dur=%v", e.Dur)
	}
	for _, f := range e.Fields {
		if detail.Len() > 0 {
			detail.WriteByte(' ')
		}
		fmt.Fprintf(&detail, "%s=%s", f.Key, f.Value)
	}
	return detail.String()
}

// renderEvents builds the EVENTS result rows for an event slice.
func renderEvents(events []obs.Event) *engine.Result {
	res := &engine.Result{
		Columns: []string{"seq", "at", "tenant", "event", "detail"},
		Tag:     "EVENTS",
	}
	for _, e := range events {
		res.Rows = append(res.Rows, []sqlmini.Value{
			sqlmini.NewInt(int64(e.Seq)),
			sqlmini.NewText(e.At.Format("15:04:05.000")),
			sqlmini.NewText(e.Tenant),
			sqlmini.NewText(e.Name),
			sqlmini.NewText(eventDetail(e)),
		})
	}
	return res
}

// execEvents renders the tail of the migration event trace (EVENTS [n]).
func (a *adminConn) execEvents(n int) (*engine.Result, error) {
	return renderEvents(obs.Trace.Last(n)), nil
}

// execTrace renders the merged cross-process timeline for one tenant
// (TRACE <tenant> [n]): middleware events plus every scrapable node's,
// source- and skew-annotated, ordered on the middleware clock.
func (a *adminConn) execTrace(tenant string, n int) (*engine.Result, error) {
	if _, ok := a.mw.Tenant(tenant); !ok {
		return nil, fmt.Errorf("core: unknown tenant %q", tenant)
	}
	res := &engine.Result{
		Columns: []string{"source", "skew", "seq", "at", "tenant", "event", "detail"},
		Tag:     "TRACE",
	}
	for _, e := range a.mw.Timeline(tenant, n) {
		res.Rows = append(res.Rows, []sqlmini.Value{
			sqlmini.NewText(e.Source),
			sqlmini.NewText(e.Skew.Round(time.Microsecond).String()),
			sqlmini.NewInt(int64(e.Seq)),
			sqlmini.NewText(e.AdjustedAt().Format("15:04:05.000")),
			sqlmini.NewText(e.Tenant),
			sqlmini.NewText(e.Name),
			sqlmini.NewText(eventDetail(e.Event)),
		})
	}
	return res, nil
}

// ParseStrategy converts a strategy name (as printed by String) to its
// value. Case-insensitive; accepts "BALL"/"B-ALL" style variants.
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToUpper(strings.ReplaceAll(s, "-", "")) {
	case "MADEUS":
		return Madeus, nil
	case "BALL":
		return BAll, nil
	case "BMIN":
		return BMin, nil
	case "BCON":
		return BCon, nil
	}
	return 0, fmt.Errorf("core: unknown strategy %q", s)
}
