package core

import (
	"errors"
	"sync"
	"testing"
)

// Regression test: propagator.fail used to let a concurrent Abort overwrite
// the first real failure with errAborted (so Report.RollbackReason blamed
// "propagation aborted" instead of the actual cause), and closed the abort
// channel outside p.mu so two racing callers could both observe
// aborted==false. Hammer fail/Abort/RequestStop/monitoring from many
// goroutines under -race and pin that the real error always wins.
func TestPropagatorFailRaceKeepsRealError(t *testing.T) {
	tn, dst := slaveRig(t)
	realErr := errors.New("destination disk on fire")

	for i := 0; i < 100; i++ {
		p := startPropagation(tn, dst, Madeus, 0, nil, nil)
		var wg sync.WaitGroup
		wg.Add(4)
		go func() { defer wg.Done(); p.Abort() }()
		go func() { defer wg.Done(); p.fail(realErr) }()
		go func() { defer wg.Done(); p.RequestStop() }()
		go func() {
			defer wg.Done()
			_ = p.Err()
			p.snapshot()
			_ = p.Stats()
		}()
		wg.Wait()
		p.Wait() //nolint:errcheck // judged via Err below
		if err := p.Err(); !errors.Is(err, realErr) {
			t.Fatalf("iteration %d: Err() = %v, want the real failure to beat the abort marker", i, err)
		}
	}
}

// The deterministic orderings, pinned explicitly: a real failure must stick
// whether it lands before or after the abort.
func TestPropagatorFailOrderings(t *testing.T) {
	tn, dst := slaveRig(t)
	realErr := errors.New("boom")

	p := startPropagation(tn, dst, Madeus, 0, nil, nil)
	p.Abort()
	p.fail(realErr)
	p.Wait() //nolint:errcheck // judged via Err below
	if err := p.Err(); !errors.Is(err, realErr) {
		t.Fatalf("abort-then-fail: Err() = %v, want %v", err, realErr)
	}

	p = startPropagation(tn, dst, Madeus, 0, nil, nil)
	p.fail(realErr)
	p.Abort()
	p.Wait() //nolint:errcheck // judged via Err below
	if err := p.Err(); !errors.Is(err, realErr) {
		t.Fatalf("fail-then-abort: Err() = %v, want %v", err, realErr)
	}
}
