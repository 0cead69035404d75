// Command disabledcost holds one //go:noinline loop per disabled hot-path
// site, for TestDisabledOverhead at the repo root to read from this
// package's assembly listing.
package main

import (
	"madeus/internal/fault"
	"madeus/internal/flow"
	"madeus/internal/invariant"
)

var sink uint64 // keeps each loop from being optimized away

//go:noinline
func loopAssert(n int) {
	for i := 0; i < n; i++ {
		invariant.Assert(sink >= 0, "sink underflow")
		invariant.Assertf(i >= 0, "negative loop index %d", i)
		invariant.Check(func() error { return nil })
		sink += uint64(i)
	}
}

//go:noinline
func loopInject(n int) {
	for i := 0; i < n; i++ {
		if fault.Inject("disabledcost.op") != nil {
			sink++
		}
		sink += uint64(i)
	}
}

//go:noinline
func loopWait(th *flow.Throttle, n int) {
	for i := 0; i < n; i++ {
		th.Wait()
		sink += uint64(i)
	}
}

func main() {
	loopAssert(1)
	loopInject(1)
	loopWait(new(flow.Throttle), 1)
}
