package lsir

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSchedulerDispatchesBySTSThenETS: a wave's first operations go in STS
// order, ties by ETS, and only those with STS <= the next ETS.
func TestSchedulerDispatchesBySTSThenETS(t *testing.T) {
	s := NewScheduler(madeusRow, 0)
	for _, st := range [][2]uint64{{0, 0}, {0, 1}, {1, 2}, {0, 3}, {3, 4}} {
		s.Link(st[0], st[1])
	}
	if got := s.Dispatch(nil); !slices.Equal(got, []uint64{0, 1, 3}) {
		t.Fatalf("first wave %v, want [0 1 3]", got)
	}
	// Commit 0 goes alone: syncset 2 (STS 1) must dispatch before commit 1.
	if first, n := s.Release(^uint64(0)); first != 0 || n != 1 {
		t.Fatalf("released (%d, %d), want (0, 1)", first, n)
	}
	if got := s.Dispatch(nil); !slices.Equal(got, []uint64{2}) {
		t.Fatalf("second wave %v, want [2]", got)
	}
	if first, n := s.Release(^uint64(0)); first != 1 || n != 2 {
		t.Fatalf("released (%d, %d), want (1, 2): syncset 4 (STS 3) holds commit 3", first, n)
	}
	if got := s.Dispatch(nil); !slices.Equal(got, []uint64{4}) {
		t.Fatalf("third wave %v, want [4]", got)
	}
	if first, n := s.Release(^uint64(0)); first != 3 || n != 2 || s.Pending() != 0 {
		t.Fatalf("released (%d, %d) with %d pending, want (3, 2) and none", first, n, s.Pending())
	}
}

// TestSchedulerSerialReplaysOneSyncsetAtATime: without CON-FW the
// scheduler hands out one whole syncset at a time in SSL order, ignores the
// commit bound, and names syncsets by SSL position, since B-ALL's read-only
// syncsets share the ETS of the update commit after them.
func TestSchedulerSerialReplaysOneSyncsetAtATime(t *testing.T) {
	s := NewScheduler(Capabilities{}, 7)
	for i := 0; i < 3; i++ {
		s.Link(7, 7) // two read-only syncsets, then the update commit 7
	}
	for slot := uint64(7); slot < 10; slot++ {
		if got := s.Dispatch(nil); !slices.Equal(got, []uint64{slot}) {
			t.Fatalf("dispatched %v, want [%d]", got, slot)
		}
		if got := s.Dispatch(nil); len(got) != 0 {
			t.Fatalf("dispatched %v while %d is in flight", got, slot)
		}
		if first, n := s.Release(0); first != slot || n != 1 {
			t.Fatalf("released (%d, %d) under bound 0, want (%d, 1)", first, n, slot)
		}
	}
	if s.Ready(0) || s.Pending() != 0 {
		t.Fatal("serial scheduler not drained")
	}
}

// TestSchedulerDebt: with CON-FW, commits at or above the bound are lag,
// not debt; serial replay's debt is its lag.
func TestSchedulerDebt(t *testing.T) {
	madeus := NewScheduler(madeusRow, 10)
	for _, c := range []struct {
		bound uint64
		want  int
	}{{^uint64(0), 4}, {12, 1}, {10, 0}, {5, 0}} {
		if got := madeus.Debt(5, 1, c.bound); got != c.want {
			t.Errorf("Madeus Debt(5 linked, 1 applied, bound %d) = %d, want %d", c.bound, got, c.want)
		}
	}
	if got := NewScheduler(Capabilities{Min: true}, 10).Debt(5, 1, 10); got != 4 {
		t.Errorf("serial Debt = %d, want 4", got)
	}
}

// streamSchedule runs the Madeus scheduler the way the propagator does, as
// the master history unfolds: a transaction's first operation stamps its
// STS into the active set (whose least STS is the commit bound), an update
// commit links its syncset, and after every master operation the slave
// takes everything the scheduler allows. held counts the releases the bound
// cut short.
func streamSchedule(t *testing.T, h History) (sched Schedule, held int) {
	t.Helper()
	byTxn := make(map[int]Syncset)
	for _, ss := range MapHistory(h) {
		byTxn[ss.Txn] = ss
	}
	txns := h.Txns()
	s := NewScheduler(madeusRow, 0)
	bySlot := make(map[uint64]Syncset)
	active := make(map[int]uint64) // txn -> STS
	started := make(map[int]bool)
	mlc := uint64(0)
	var wave []uint64
	for _, op := range h.Ops {
		switch op.Kind {
		case OpRead, OpWrite:
			if !started[op.Txn] {
				started[op.Txn] = true
				active[op.Txn] = mlc
			}
		case OpCommit, OpAbort:
			sts := active[op.Txn]
			delete(active, op.Txn)
			if op.Kind == OpCommit && txns[op.Txn].Update {
				ss := byTxn[op.Txn]
				if uint64(ss.STS) != sts || uint64(ss.ETS) != mlc {
					t.Fatalf("T%d streamed as %d/%d, MapHistory says %d/%d", op.Txn, sts, mlc, ss.STS, ss.ETS)
				}
				bySlot[s.Link(sts, mlc)] = ss
				mlc++
			}
		}
		bound := ^uint64(0)
		for _, sts := range active {
			bound = min(bound, sts)
		}
		for {
			wave = s.Dispatch(wave[:0])
			for _, slot := range wave {
				ss := bySlot[slot]
				if fr := ss.FirstRead(); fr != nil {
					sched.Ops = append(sched.Ops, *fr)
				}
			}
			for _, slot := range wave {
				ss := bySlot[slot]
				sched.Ops = append(sched.Ops, ss.Writes()...)
			}
			if !s.Ready(bound) && s.Ready(^uint64(0)) {
				held++
			}
			first, n := s.Release(bound)
			for slot := first; slot < first+uint64(n); slot++ {
				sched.Ops = append(sched.Ops, Op{Txn: bySlot[slot].Txn, Kind: OpCommit})
			}
			if len(wave) == 0 && n == 0 {
				break
			}
		}
	}
	if n := s.Pending(); n > 0 {
		t.Fatalf("%d syncsets never released in %s", n, h)
	}
	return sched, held
}

// TestPropertyStreamingScheduleValidAndConsistent checks the scheduler
// where the offline schedules cannot reach: syncsets linked one commit at a
// time and releases held by the commit bound. Every schedule must satisfy
// the LSIR and replay to the master's state.
func TestPropertyStreamingScheduleValidAndConsistent(t *testing.T) {
	heldTotal := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultGenConfig()
		cfg.Txns = 5 + rng.Intn(15)
		h := Generate(rng, cfg)
		sched, held := streamSchedule(t, h)
		heldTotal += held
		if err := CheckLSIR(h, sched); err != nil {
			t.Fatalf("seed %d: CheckLSIR: %v\nhistory: %s", seed, err, h)
		}
		if err := Replay(h, sched); err != nil {
			t.Fatalf("seed %d: Replay: %v\nhistory: %s", seed, err, h)
		}
	}
	if heldTotal == 0 {
		t.Fatal("the commit bound never held a release back; the property is not exercised")
	}
	t.Logf("the bound held back %d releases", heldTotal)
}

// TestCheckReleaseRejectsRule1bViolation proves the release check bites: a
// commit released before a first operation with STS <= its ETS, or out of
// ETS order, is reported.
func TestCheckReleaseRejectsRule1bViolation(t *testing.T) {
	s := NewScheduler(madeusRow, 0)
	s.Link(0, 0)
	s.Link(0, 1)
	if err := s.checkRelease(0); err == nil {
		t.Fatal("commit 0 accepted before any first operation was dispatched")
	}
	s.Dispatch(nil)
	if err := s.checkRelease(0); err != nil {
		t.Fatalf("valid release rejected: %v", err)
	}
	if err := s.checkRelease(1); err == nil {
		t.Fatal("commit 1 accepted ahead of commit 0")
	}
}
