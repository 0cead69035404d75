//go:build invariants

package invariant

import (
	"fmt"
	"sync/atomic"
)

// hits counts evaluated assertions so tag-gated tests can prove the
// instrumented call sites were actually exercised.
var hits atomic.Uint64

// Assert panics with msg when cond is false.
func Assert(cond bool, msg string) {
	hits.Add(1)
	if !cond {
		panic("invariant: " + msg)
	}
}

// Assertf panics with the formatted message when cond is false.
func Assertf(cond bool, format string, args ...any) {
	hits.Add(1)
	if !cond {
		panic(fmt.Sprintf("invariant: "+format, args...))
	}
}

// Check runs f and panics when it reports a violation. Use it for checks
// too expensive to evaluate eagerly at the call site.
func Check(f func() error) {
	hits.Add(1)
	if err := f(); err != nil {
		panic("invariant: " + err.Error())
	}
}

// Count reports how many assertions have been evaluated.
func Count() uint64 { return hits.Load() }

// Reset clears the assertion counter.
func Reset() { hits.Store(0) }
