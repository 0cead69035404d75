// Command madeusctl sends operator commands to a running madeusd.
//
//	madeusctl -addr 127.0.0.1:6000 status
//	madeusctl -addr 127.0.0.1:6000 add-tenant shop node0
//	madeusctl -addr 127.0.0.1:6000 migrate shop node1
//	madeusctl -addr 127.0.0.1:6000 migrate shop node1 B-MIN
//	madeusctl -addr 127.0.0.1:6000 trace shop
//	madeusctl -addr 127.0.0.1:6000 events -follow -tenant shop
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"madeus/internal/core"
	"madeus/internal/engine"
	"madeus/internal/sqlmini"
	"madeus/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:6000", "madeusd address")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	var cmd string
	switch args[0] {
	case "status":
		cmd = "STATUS"
	case "stats":
		switch len(args) {
		case 1:
			cmd = "STATS"
		case 2:
			cmd = "STATS " + args[1]
		default:
			usage()
		}
	case "events":
		// `events -follow` live-tails the trace ring using the event
		// sequence number as a bookmark; everything else is a one-shot.
		followEvents(*addr, args[1:])
		return
	case "trace":
		// Merged cross-node timeline for one tenant: the daemon scrapes
		// every node's trace ring and interleaves it with its own spans.
		switch len(args) {
		case 2:
			cmd = "TRACE " + args[1]
		case 3:
			cmd = fmt.Sprintf("TRACE %s %s", args[1], args[2])
		default:
			usage()
		}
	case "add-tenant":
		if len(args) != 3 {
			usage()
		}
		cmd = fmt.Sprintf("ADD TENANT %s ON %s", args[1], args[2])
	case "remove-tenant":
		if len(args) != 2 {
			usage()
		}
		cmd = "REMOVE TENANT " + args[1]
	case "migrate":
		switch len(args) {
		case 3:
			cmd = fmt.Sprintf("MIGRATE %s TO %s", args[1], args[2])
		case 4:
			cmd = fmt.Sprintf("MIGRATE %s TO %s STRATEGY %s", args[1], args[2], args[3])
		default:
			usage()
		}
	case "flow":
		// Backpressure surface: `flow` lists knobs + live counters,
		// `flow set <knob> <value>` retunes one at runtime.
		switch {
		case len(args) == 1:
			cmd = "FLOW"
		case len(args) == 4 && args[1] == "set":
			cmd = fmt.Sprintf("FLOW SET %s %s", args[2], args[3])
		default:
			usage()
		}
	case "fault":
		// Passthrough to the failpoint registry (daemon must be built
		// with -tags faultinject): fault list | enable <site> <policy>
		// | disable <site> | release <site> | reset | seed <n>.
		if len(args) < 2 {
			usage()
		}
		cmd = "FAULT " + strings.Join(args[1:], " ")
	default:
		usage()
	}

	c := dial(*addr)
	defer c.Close()
	res, err := c.Exec(cmd)
	if err != nil {
		fatal(err)
	}
	printResult(os.Stdout, res)
}

func dial(addr string) *wire.Client {
	c, err := wire.Dial(addr, core.AdminDB)
	if err != nil {
		fatal(err)
	}
	return c
}

func printResult(w io.Writer, res *engine.Result) {
	if len(res.Columns) > 0 {
		fmt.Fprintln(w, strings.Join(res.Columns, "\t"))
	}
	printRows(w, res)
	fmt.Fprintln(w, res.Tag)
}

// printRows prints one tab-separated line per row. A text cell prints
// raw: Value.String renders SQL, which would quote it.
func printRows(w io.Writer, res *engine.Result) {
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			if v.Kind == sqlmini.KindText {
				cells[i] = v.Str
			} else {
				cells[i] = v.String()
			}
		}
		fmt.Fprintln(w, strings.Join(cells, "\t"))
	}
}

// followEvents handles `events [-tenant t] [n]` and `events -follow`. The
// follow mode polls EVENTS SINCE <seq> on one admin session, advancing the
// bookmark past the highest sequence number seen, and exits cleanly on
// Ctrl-C.
func followEvents(addr string, args []string) {
	fs := flag.NewFlagSet("events", flag.ExitOnError)
	follow := fs.Bool("follow", false, "stream new events until interrupted")
	interval := fs.Duration("interval", 500*time.Millisecond, "poll interval in follow mode")
	tenant := fs.String("tenant", "", "only show events for this tenant")
	if err := fs.Parse(args); err != nil {
		usage()
	}
	rest := fs.Args()
	if len(rest) > 1 {
		usage()
	}

	c := dial(addr)
	defer c.Close()

	if !*follow {
		n := ""
		if len(rest) == 1 {
			n = rest[0]
		}
		res, err := lastEvents(c, *tenant, n)
		if err != nil {
			fatal(err)
		}
		printResult(os.Stdout, res)
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	// Seed the bookmark from everything currently in the ring so the tail
	// only ever shows events that happen after we attach.
	var since uint64
	poll := func() {
		cmd := "EVENTS SINCE " + strconv.FormatUint(since, 10)
		if *tenant != "" {
			cmd += " " + *tenant
		}
		res, err := c.Exec(cmd)
		if err != nil {
			fatal(err)
		}
		printRows(os.Stdout, res)
		for _, row := range res.Rows {
			if len(row) == 0 {
				continue
			}
			if seq, err := strconv.ParseUint(row[0].String(), 10, 64); err == nil && seq >= since {
				since = seq + 1
			}
		}
	}
	// First call fast-forwards the bookmark without printing history.
	seed := "EVENTS SINCE 0"
	if *tenant != "" {
		seed += " " + *tenant
	}
	res, err := c.Exec(seed)
	if err != nil {
		fatal(err)
	}
	if len(res.Columns) > 0 {
		fmt.Println(strings.Join(res.Columns, "\t"))
	}
	for _, row := range res.Rows {
		if len(row) == 0 {
			continue
		}
		if seq, err := strconv.ParseUint(row[0].String(), 10, 64); err == nil && seq >= since {
			since = seq + 1
		}
	}

	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		select {
		case <-sig:
			return
		case <-tick.C:
			poll()
		}
	}
}

// lastEvents answers `events [-tenant t] [n]`: the last n events of the
// trace (n as typed, the admin channel's 50 when empty), only tenant's when
// tenant is set. EVENTS [n] has no tenant filter, so a tenant's tail is
// EVENTS SINCE 0 <tenant>, every event of the tenant still in the ring, cut
// to its last n rows here.
func lastEvents(c *wire.Client, tenant, n string) (*engine.Result, error) {
	if tenant == "" {
		cmd := "EVENTS"
		if n != "" {
			cmd += " " + n
		}
		return c.Exec(cmd)
	}
	last := 50
	if n != "" {
		v, err := strconv.Atoi(n)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("madeusctl: usage: events [-tenant t] [n] (n > 0)")
		}
		last = v
	}
	res, err := c.Exec("EVENTS SINCE 0 " + tenant)
	if err != nil {
		return nil, err
	}
	if len(res.Rows) > last {
		res.Rows = res.Rows[len(res.Rows)-last:]
	}
	return res, nil
}

// usageText lists every subcommand; README's walkthrough may name no
// other (main_test.go checks).
const usageText = `usage: madeusctl [-addr host:port] <command>
commands:
  status                          list tenants, nodes, and migration state
  stats [tenant]                  process-wide metrics, or one tenant's monitor
  events [-tenant t] [n]          tail of the migration event trace (default 50)
  events -follow [-tenant t] [-interval d]
                                  live-tail new events until Ctrl-C
  trace <tenant> [n]              merged cross-node timeline for one tenant
  add-tenant <tenant> <node>      provision a tenant on a node
  remove-tenant <tenant>          drop a tenant from the middleware (not migrating)
  migrate <tenant> <node> [strat] live-migrate (strat: B-ALL B-MIN B-CON Madeus)
  flow                            list backpressure knobs and live counters
  flow set <knob> <value>         retune one backpressure knob at runtime
  fault <subcmd> [args]           drive failpoints on a -tags faultinject build:
                                  list | enable <site> <error|drop|hang> [times]
                                  | enable <site> delay <dur> [times]
                                  | enable <site> p <prob> | disable <site>
                                  | release <site> | reset | seed <n>`

func usage() {
	fmt.Fprintln(os.Stderr, usageText)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "madeusctl:", err)
	os.Exit(1)
}
