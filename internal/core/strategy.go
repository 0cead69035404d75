// Package core implements Madeus, the database live-migration middleware
// (Section 4 of the paper), together with the three baseline middleware
// approaches it is evaluated against (Section 5.3.1).
//
// Madeus sits between customers and DBMS nodes. Its worker path (Algorithm
// 1/2) relays operations to the tenant's master node while capturing
// syncsets — the minimal query sets of the LSIR mapping function — into
// syncset buffers (SSBs) stamped with the master logical clock (MLC). A
// migration (Algorithm 3) dumps a snapshot, creates the slave, propagates
// syncsets with the conductor/players (Algorithms 4/5), and switches the
// tenant over. The lazy snapshot isolation rule guarantees the slave ends
// consistent with the master (Theorems 1 and 2).
package core

import "madeus/internal/lsir"

// Strategy selects a propagation protocol (Table 2).
type Strategy int

const (
	// Madeus propagates the minimum query set with first reads, writes,
	// AND commits concurrent, per the LSIR (MIN + CON-FW + CON-COM).
	Madeus Strategy = iota
	// BAll propagates every operation of every transaction serially in
	// commit order (no MIN, no concurrency).
	BAll
	// BMin propagates the minimum query set serially in commit order
	// (MIN only), like the lazy middleware of Ganymed/FAS [36, 37].
	BMin
	// BCon propagates first reads and writes concurrently but commits
	// serially in master commit order (MIN + CON-FW), like the rule of
	// Daudjee and Salem [24]; its players contend on a commit token.
	BCon
)

func (s Strategy) String() string {
	switch s {
	case Madeus:
		return "Madeus"
	case BAll:
		return "B-ALL"
	case BMin:
		return "B-MIN"
	case BCon:
		return "B-CON"
	}
	return "Strategy(?)"
}

// Capabilities returns the Table-2 row for s: which of the paper's three
// mechanisms it implements, MIN (minimum query set), CON-FW (concurrent
// first reads and writes) and CON-COM (concurrent commits). The propagator's
// scheduler reads the last two.
func (s Strategy) Capabilities() lsir.Capabilities {
	switch s {
	case BMin:
		return lsir.Capabilities{Min: true}
	case BCon:
		return lsir.Capabilities{Min: true, ConFW: true}
	case Madeus:
		return lsir.Capabilities{Min: true, ConFW: true, ConCom: true}
	default: // BAll
		return lsir.Capabilities{}
	}
}

// Strategies lists all four in the paper's presentation order.
func Strategies() []Strategy { return []Strategy{BAll, BMin, BCon, Madeus} }

// capture returns the capture window the strategy opens: captureAll when
// it propagates every operation of every transaction (B-ALL), else
// captureUpdates.
func (s Strategy) capture() int32 {
	if s == BAll {
		return captureAll
	}
	return captureUpdates
}
