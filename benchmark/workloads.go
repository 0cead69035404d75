package main

import (
	"fmt"
	"time"

	"madeus/internal/tpcw"
)

// sizes fixes a run's phases in committed interactions, never in seconds:
// a faster build must not insert more orders rows before each migration and
// so slow its own migrate_s, and counts must repeat from run to run.
type sizes struct {
	W int // warm-up interactions, the tail of set-up
	S int // steady-phase interactions
	K int // ping-pong migrations
	M int // interactions between migration starts
}

// workload is one traffic mix at one data size and one commit cost.
type workload struct {
	Name      string
	Why       string
	UpdatePct int
	Scale     tpcw.Scale
	SyncDelay time.Duration
	sizes
}

// refSeconds is the measured window (steady plus migrating) the sizes below
// were calibrated for on the reference host; -seconds scales S and K from it.
const refSeconds = 16

// workloads are the four rows of the issue's table. Mix, scale and SyncDelay
// are the issue's; W, S, K and M were sized down from it so that 4+22×4 runs
// with three set-ups each fit the driver's time cap even in an hour when the
// host runs 1.6× slower (see README.md).
var workloads = []workload{
	{
		Name:      "browse-small",
		Why:       "point reads over small rows: the two wire hops and the proxy relay dominate, capture and WAL idle, a migration is only its fixed costs",
		UpdatePct: 5,
		Scale:     tpcw.Scale{Items: 2000, Customers: 5000, Authors: 500},
		sizes:     sizes{W: 8000, S: 60000, K: 6, M: 7000},
	},
	{
		Name:      "order-small",
		Why:       "same data, half the interactions write: first-op stamping, SSL capture, commit path and CPU-bound syncset replay do the work",
		UpdatePct: 50,
		Scale:     tpcw.Scale{Items: 2000, Customers: 5000, Authors: 500},
		sizes:     sizes{W: 3000, S: 40000, K: 5, M: 5000},
	},
	{
		Name:      "order-large",
		Why:       "key space far beyond the 4096-entry parse cache, O(items) scans, and dump-stream-restore is most of a migration",
		UpdatePct: 50,
		Scale:     tpcw.Scale{Items: 20000, Customers: 60000, Authors: 5000},
		sizes:     sizes{W: 2000, S: 10000, K: 5, M: 3500},
	},
	{
		Name:      "order-fsync",
		Why:       "order-small's statements with the shipped 2 ms commit delay: WAL group commit, CON-COM, catch-up and source pacing decide the result",
		UpdatePct: 50,
		Scale:     tpcw.Scale{Items: 2000, Customers: 5000, Authors: 500},
		SyncDelay: 2 * time.Millisecond,
		sizes:     sizes{W: 500, S: 5000, K: 3, M: 1800},
	},
}

func findWorkload(name string) (workload, error) {
	for _, wl := range workloads {
		if wl.Name == name {
			return wl, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns the sizes for a measured window of the given length: S and
// K grow with it, W and M do not (a longer run measures more, it does not
// warm up longer or space its migrations differently).
func (z sizes) scaled(seconds int) sizes {
	z.S = z.S * seconds / refSeconds
	z.K = (z.K*seconds + refSeconds/2) / refSeconds
	if z.S < 1 {
		z.S = 1
	}
	if z.K < 1 {
		z.K = 1
	}
	return z
}

// halved is the traced run's shape: the probes need the other half of the
// time.
func (z sizes) halved() sizes {
	z.W, z.S, z.K = (z.W+1)/2, (z.S+1)/2, (z.K+1)/2
	return z
}
