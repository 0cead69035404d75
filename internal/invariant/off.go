//go:build !invariants

package invariant

// Assert is a no-op without the invariants build tag.
func Assert(cond bool, msg string) {}

// Assertf is a no-op without the invariants build tag.
func Assertf(cond bool, format string, args ...any) {}

// Check is a no-op without the invariants build tag; f is never called.
func Check(f func() error) {}

// Count reports how many assertions have been evaluated; always 0 without
// the invariants build tag.
func Count() uint64 { return 0 }

// Reset clears the assertion counter.
func Reset() {}
