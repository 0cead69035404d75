//go:build invariants

package core

import (
	"testing"

	"madeus/internal/invariant"
)

// TestPropagatorReleaseChecksArmed proves the scheduler's release checks
// run on the propagator's path in invariants builds: a three-syncset
// replay must evaluate them.
func TestPropagatorReleaseChecksArmed(t *testing.T) {
	tn, dst := slaveRig(t)
	linkSSB(tn, 0, 0, "SELECT v FROM kv WHERE k = 1", "UPDATE kv SET v = 1 WHERE k = 1")
	linkSSB(tn, 0, 1, "SELECT v FROM kv WHERE k = 2", "UPDATE kv SET v = 5 WHERE k = 2")
	linkSSB(tn, 1, 2, "UPDATE kv SET v = 9 WHERE v = 5", "UPDATE kv SET v = 3 WHERE k = 3")
	invariant.Reset()
	p := startPropagation(tn, dst, Madeus, 0, nil, nil)
	p.RequestStop()
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := invariant.Count(); n < 3 {
		t.Fatalf("%d assertions evaluated over three releases; the scheduler's checks are not armed", n)
	}
}
