package lsir

import "fmt"

// Schedule is a candidate slave schedule: a total order over syncset
// operations. (Operations the slave executes concurrently appear in some
// serialization order here; the LSIR only constrains specific pairs, so any
// serialization of a rule-respecting concurrent execution checks out.)
type Schedule struct {
	Ops []Op
}

// CheckLSIR verifies that schedule s over the syncsets of master history h
// satisfies Definition 3:
//
//	(1-a) c_i^m < r_{j,1}^m  ⇒  c_i^s < r_{j,1}^s
//	(1-b) r_{j,1}^m < c_i^m  ⇒  r_{j,1}^s < c_i^s
//	(2)   intra-transaction write order is preserved
//
// plus completeness: the schedule contains exactly the ℱ-mapped operations.
// It returns nil when the schedule is LSIR-valid.
func CheckLSIR(h History, s Schedule) error {
	sets := MapHistory(h)

	// Completeness / per-transaction op sequence equality.
	wantPerTxn := make(map[int][]Op)
	for _, ss := range sets {
		wantPerTxn[ss.Txn] = ss.Ops
	}
	gotPerTxn := make(map[int][]Op)
	for _, op := range s.Ops {
		gotPerTxn[op.Txn] = append(gotPerTxn[op.Txn], op)
	}
	if len(gotPerTxn) != len(wantPerTxn) {
		return fmt.Errorf("lsir: schedule covers %d transactions, want %d", len(gotPerTxn), len(wantPerTxn))
	}
	for txn, want := range wantPerTxn {
		got := gotPerTxn[txn]
		if len(got) != len(want) {
			return fmt.Errorf("lsir: txn %d has %d ops in schedule, want %d", txn, len(got), len(want))
		}
		for i := range want {
			// Rule (2) — and the FIFO syncset buffer in general —
			// requires each transaction's preserved ops in master
			// order.
			if got[i].Kind != want[i].Kind || got[i].Item != want[i].Item {
				return fmt.Errorf("lsir: txn %d op %d is %v, want %v (rule 2 / FIFO order)", txn, i, got[i], want[i])
			}
		}
	}

	// Positions of first reads and commits in master history and
	// schedule.
	type pos struct{ firstRead, commit int }
	master := make(map[int]pos)
	for _, ss := range sets {
		master[ss.Txn] = pos{firstRead: -1, commit: -1}
	}
	mark := func(m map[int]pos, ops []Op, onlyMapped map[int]pos) {
		seenRead := make(map[int]bool)
		for i, op := range ops {
			if _, ok := onlyMapped[op.Txn]; !ok {
				continue
			}
			p := m[op.Txn]
			switch op.Kind {
			case OpRead:
				if !seenRead[op.Txn] {
					seenRead[op.Txn] = true
					p.firstRead = i
				}
			case OpCommit:
				p.commit = i
			}
			m[op.Txn] = p
		}
	}
	mark(master, h.Ops, master)
	sched := make(map[int]pos)
	for txn := range master {
		sched[txn] = pos{firstRead: -1, commit: -1}
	}
	mark(sched, s.Ops, sched)

	// Rules (1-a) and (1-b): for every commit/first-read pair, the
	// master's relative order must be preserved.
	for i, pi := range master {
		for j, pj := range master {
			if i == j || pi.commit < 0 || pj.firstRead < 0 {
				continue
			}
			si, sj := sched[i], sched[j]
			if pi.commit < pj.firstRead && !(si.commit < sj.firstRead) {
				return fmt.Errorf("lsir: rule (1-a) violated: c%d < r%d,1 in master but not in schedule", i, j)
			}
			if pj.firstRead < pi.commit && !(sj.firstRead < si.commit) {
				return fmt.Errorf("lsir: rule (1-b) violated: r%d,1 < c%d in master but not in schedule", j, i)
			}
		}
	}
	return nil
}

// checkScheduleOrdering verifies that out contains, for each syncset, its
// preserved operations as an exact subsequence in syncset (FIFO) order, with
// the transaction's commit as its final operation, and nothing else.
func checkScheduleOrdering(sets []Syncset, out []Op) error {
	perTxn := make(map[int][]Op)
	for _, op := range out {
		perTxn[op.Txn] = append(perTxn[op.Txn], op)
	}
	for _, ss := range sets {
		got := perTxn[ss.Txn]
		if len(got) != len(ss.Ops) {
			return fmt.Errorf("lsir: schedule has %d ops for txn %d, syncset has %d", len(got), ss.Txn, len(ss.Ops))
		}
		for i, want := range ss.Ops {
			if got[i].Kind != want.Kind || got[i].Item != want.Item {
				return fmt.Errorf("lsir: txn %d op %d scheduled as %v, syncset order says %v", ss.Txn, i, got[i], want)
			}
		}
		if n := len(got); n > 0 && got[n-1].Kind != OpCommit {
			return fmt.Errorf("lsir: txn %d schedule does not end with its commit", ss.Txn)
		}
		delete(perTxn, ss.Txn)
	}
	for txn := range perTxn {
		return fmt.Errorf("lsir: schedule contains ops for unknown txn %d", txn)
	}
	return nil
}
