// Baselines: migrate the same loaded tenant with each propagation strategy
// (B-ALL, B-MIN, B-CON, Madeus) and compare migration times — a
// single-load-level slice of the paper's Figure 6.
//
//	go run ./examples/baselines            # medium load
//	go run ./examples/baselines -ebs 700   # heavy load (paper scale)
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"time"

	"madeus/internal/bench"
	"madeus/internal/core"
	"madeus/internal/flow"
	"madeus/internal/tpcw"
)

func main() {
	paperEBs := flag.Int("ebs", 400, "paper-scale EB count (100 light, 400 medium, 700 heavy)")
	flag.Parse()

	cfg := bench.Default()
	cfg.Deadline = 20 * time.Second
	scale := tpcw.ScaleFor(100000, 100, cfg.RowFactor)

	fmt.Printf("migrating one tenant under %d paper-EBs (%d emulated browsers) with each strategy\n\n",
		*paperEBs, cfg.EBs(*paperEBs))
	fmt.Printf("%-8s  %-10s  %-28s\n", "strategy", "migration", "notes")
	for _, strat := range core.Strategies() {
		h, err := bench.NewHarness(cfg, 2)
		check(err)
		if err := h.Provision("shop", "node0", scale); err != nil {
			h.Close()
			check(err)
		}
		rep, _, err := h.MigrateUnderLoad("shop", "node1", cfg.EBs(*paperEBs),
			tpcw.Ordering, scale, core.MigrateOptions{Strategy: strat})
		h.Close()
		switch {
		case errors.Is(err, flow.ErrDeadline):
			fmt.Printf("%-8s  %-10s  slave could not catch up (the paper's N/A)\n", strat, "N/A")
		case err != nil:
			log.Fatalf("%s: %v", strat, err)
		default:
			notes := fmt.Sprintf("max commit group %d", rep.Propagation.MaxGroup)
			fmt.Printf("%-8s  %-10v  %s\n", strat, rep.Total().Round(10*time.Millisecond), notes)
		}
	}
	fmt.Println("\nMadeus propagates commits concurrently, so the slave group-commits")
	fmt.Println("them (max commit group > 1); the baselines pay one fsync per commit.")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
