package lsir

import (
	"fmt"
	"slices"
	"sort"

	"madeus/internal/invariant"
)

// Capabilities is one row of Table 2: which of the paper's three mechanisms
// a propagation strategy implements. The scheduler reads the two
// propagation columns, CON-FW and CON-COM; MIN is the capture side's
// business (the mapping function, Definition 2).
type Capabilities struct {
	Min    bool // minimum query set (LSIR mapping function)
	ConFW  bool // concurrent first-read/write propagation
	ConCom bool // concurrent commit propagation (group commit)
}

// Scheduler is the conductor of Algorithm 4 as a pure decision procedure:
// no goroutines, sockets or clock. Its caller links syncsets in SSL order,
// asks Dispatch which first operations may go, completes them on the slave,
// and asks Release which commits may go as one group. The slave's schedule
// then obeys the LSIR (Definition 3):
//
//   - a syncset's first operation is dispatched only when every commit
//     with ETS < its STS has been released (rule 1-a): dispatch eligibility
//     is STS <= the next ETS;
//   - a commit with ETS = e is released only after every first operation
//     with STS <= e (rule 1-b). The caller completes each wave's first
//     operations before it asks for a release, and a release is a
//     contiguous run of commits from the next ETS that stops below the
//     commit bound (no unresolved master transaction with a stamped
//     STS <= e) and before any e for which a linked syncset with
//     STS <= e is still undispatched;
//   - writes replay FIFO within each syncset (rule 2): the caller's
//     players replay them in buffer order;
//   - with CON-COM a release is one group the slave commits together;
//     without it each commit is released alone, in ETS order.
//
// Without CON-FW (B-ALL, B-MIN) the scheduler replays one whole syncset at
// a time in SSL order and ignores the bound: those baselines replay
// committed transactions in commit order and implement no rule 1-b wait.
//
// Syncsets are named by slot, their place in the commit order counted from
// the MTS (the ETS of the first syncset to replay). With CON-FW the slot is
// the syncset's ETS, which the MLC makes contiguous in SSL order. Without
// it the slot is the MTS plus the SSL position, because B-ALL also links
// read-only transactions, which share the ETS of the update commit after
// them.
type Scheduler struct {
	conFW, conCom bool
	mts           uint64
	next          uint64  // slot of the next commit to release
	linked        uint64  // slot the next linked syncset takes
	waiting       []stamp // linked, first operation not gone; by STS, ties by slot
}

// stamp is a linked syncset awaiting dispatch.
type stamp struct{ sts, slot uint64 }

// NewScheduler returns the scheduler of a propagation from mts with the
// given Table-2 row.
func NewScheduler(c Capabilities, mts uint64) *Scheduler {
	return &Scheduler{conFW: c.ConFW, conCom: c.ConCom, mts: mts, next: mts, linked: mts}
}

// Link appends the next syncset of the SSL and returns its slot.
func (s *Scheduler) Link(sts, ets uint64) uint64 {
	slot := s.linked
	if !s.conFW {
		// Serial replay: the first operation waits for every earlier
		// syncset's commit.
		sts = slot
	} else {
		invariant.Assertf(ets == slot, "lsir: linked ETS %d, want %d (ETS contiguous in SSL order)", ets, slot)
	}
	s.linked++
	// Slots only grow, so a new stamp goes after every equal STS.
	i := sort.Search(len(s.waiting), func(i int) bool { return s.waiting[i].sts > sts })
	s.waiting = slices.Insert(s.waiting, i, stamp{sts: sts, slot: slot})
	return slot
}

// Dispatch appends to dst the slots of every syncset whose first operation
// may go now, in (STS, ETS) order, and marks them dispatched. Their first
// operations must complete on the slave before the next Release.
func (s *Scheduler) Dispatch(dst []uint64) []uint64 {
	for len(s.waiting) > 0 && s.waiting[0].sts <= s.next {
		dst = append(dst, s.waiting[0].slot)
		s.waiting = s.waiting[1:]
	}
	return dst
}

// Release returns the commit group that may go now: n contiguous slots
// from first. bound is the commit bound, the least STS of the master
// transactions still unresolved (^uint64(0) when there are none).
func (s *Scheduler) Release(bound uint64) (first uint64, n int) {
	first = s.next
	limit := s.limit(bound)
	for s.next < limit {
		e := s.next
		invariant.Check(func() error { return s.checkRelease(e) })
		s.next++
		n++
		if !s.conCom {
			break
		}
	}
	return first, n
}

// limit is the first slot that may not be released yet: the bound, the
// least STS still undispatched (which also covers every undispatched
// syncset's own commit, since STS <= ETS), and the end of the SSL.
func (s *Scheduler) limit(bound uint64) uint64 {
	limit := s.linked
	if s.conFW {
		limit = min(limit, bound)
	}
	if len(s.waiting) > 0 {
		limit = min(limit, s.waiting[0].sts)
	}
	return limit
}

// checkRelease verifies that releasing slot e keeps rules 1-a and 1-b: e
// is the next commit in ETS order, it is linked, and no syncset the
// scheduler knows of with STS <= e is still undispatched.
func (s *Scheduler) checkRelease(e uint64) error {
	if e != s.next || e >= s.linked {
		return fmt.Errorf("lsir: releasing commit %d, next is %d of %d linked", e, s.next, s.linked)
	}
	for _, w := range s.waiting {
		if w.sts <= e {
			return fmt.Errorf("lsir: rule (1-b): commit %d released before the first operation of syncset %d (STS %d)", e, w.slot, w.sts)
		}
	}
	return nil
}

// Ready reports whether Dispatch or Release(bound) would hand out anything.
func (s *Scheduler) Ready(bound uint64) bool {
	return (len(s.waiting) > 0 && s.waiting[0].sts <= s.next) || s.next < s.limit(bound)
}

// Pending is the number of linked syncsets whose commit has not been
// released.
func (s *Scheduler) Pending() int { return int(s.linked - s.next) }

// Debt is how many syncsets the slave is behind by, as catch-up detection
// counts it: of the linked syncsets, those the scheduler may replay in full
// now, less the applied ones. With CON-FW, a commit at or above the bound
// waits on a master transaction that has not resolved; under sustained
// load that floor never reaches zero, so it is lag, not debt. Serial replay
// waits on nothing: its debt is the lag. Debt reads only what NewScheduler
// set, so it may run beside the goroutine that calls the rest.
func (s *Scheduler) Debt(linked, applied int, bound uint64) int {
	replayable := linked
	if s.conFW && bound < s.mts+uint64(linked) {
		replayable = int(bound - min(bound, s.mts))
	}
	return max(replayable-applied, 0)
}

// madeusRow and bconRow are Table 2's rows for the two concurrent
// strategies.
var (
	madeusRow = Capabilities{Min: true, ConFW: true, ConCom: true}
	bconRow   = Capabilities{Min: true, ConFW: true}
)

// MadeusSchedule is the slave schedule the Madeus conductor and players
// produce (Algorithms 4 and 5) over a fully linked SSL: the scheduler's
// every wave of first reads (here in dispatch order), then their writes,
// then the commit group it releases.
func MadeusSchedule(sets []Syncset) Schedule {
	sched, _ := drive(sets, madeusRow)
	return sched
}

// CommitBatches reports the sizes of the commit groups the Madeus
// scheduler releases over a fully linked SSL: the commits the slave group
// commits together, which quantifies the group-commit advantage (Sec 4.1).
func CommitBatches(sets []Syncset) []int {
	_, groups := drive(sets, madeusRow)
	return groups
}

// BConSchedule is the slave schedule of the B-CON baseline (the rule of
// Daudjee and Salem [24], Sec 5.3.1): the scheduler without CON-COM, so
// first reads and writes propagate concurrently exactly as Madeus does, but
// every commit is released alone, in master commit (ETS) order.
//
// B-CON's rule is strictly stronger than the LSIR: every schedule it
// produces satisfies the LSIR (the property-based tests verify this), which
// is why B-CON is correct but slower — it gives up the group-commit
// opportunity the LSIR's relaxation creates.
func BConSchedule(sets []Syncset) Schedule {
	sched, _ := drive(sets, bconRow)
	return sched
}

// drive runs the scheduler of row c over sets, all linked up front with no
// master transaction unresolved, and returns the schedule and the size of
// each released commit group. The sets' ETS values must be contiguous, as
// MapHistory stamps them.
func drive(sets []Syncset, c Capabilities) (Schedule, []int) {
	if len(sets) == 0 {
		return Schedule{}, nil
	}
	byETS := append([]Syncset(nil), sets...)
	sort.Slice(byETS, func(i, j int) bool { return byETS[i].ETS < byETS[j].ETS })
	mts := uint64(byETS[0].ETS)
	s := NewScheduler(c, mts)
	for _, ss := range byETS {
		s.Link(uint64(ss.STS), uint64(ss.ETS))
	}
	at := func(slot uint64) *Syncset { return &byETS[slot-mts] }

	var out []Op
	var groups []int
	var wave []uint64
	for {
		wave = s.Dispatch(wave[:0])
		for _, slot := range wave {
			if fr := at(slot).FirstRead(); fr != nil {
				out = append(out, *fr)
			}
		}
		for _, slot := range wave {
			out = append(out, at(slot).Writes()...)
		}
		first, n := s.Release(^uint64(0))
		for slot := first; slot < first+uint64(n); slot++ {
			out = append(out, Op{Txn: at(slot).Txn, Kind: OpCommit})
		}
		if n > 0 {
			groups = append(groups, n)
		}
		if len(wave) == 0 && n == 0 {
			break
		}
	}
	// The schedule must itself be well-formed: every syncset appears as its
	// exact FIFO op sequence with the commit last (invariants builds
	// re-verify this on every schedule built).
	invariant.Check(func() error { return checkScheduleOrdering(sets, out) })
	return Schedule{Ops: out}, groups
}
