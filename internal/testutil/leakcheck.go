// Package testutil holds shared test helpers. Its centerpiece is the
// goroutine leak checker: the middleware's proxy/propagator/committer
// machinery spawns goroutines whose shutdown paths the leak checker
// verifies, per test.
package testutil

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// leakGrace is how long a test's goroutines get to wind down before the
// checker declares a leak. Teardown is asynchronous (close → drain → exit),
// so the count is polled rather than sampled once.
const leakGrace = 5 * time.Second

// CheckGoroutines snapshots the goroutine count and registers a cleanup that
// fails the test if, after the grace period, more goroutines are running
// than at the snapshot. Call it FIRST in the test, before any servers or
// nodes are created, so their teardown runs (via later t.Cleanup
// registrations) before the comparison.
//
// On failure the checker dumps all goroutine stacks, filtered down to the
// ones mentioning this module, so the leaked site is identifiable.
func CheckGoroutines(t testing.TB) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		if t.Failed() {
			return // don't pile a leak report onto a real failure
		}
		deadline := time.Now().Add(leakGrace)
		var n int
		for {
			n = runtime.NumGoroutine()
			if n <= base {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d running after test, %d at start\n%s",
			n, base, moduleStacks())
	})
}

// moduleStacks renders the stacks of goroutines that run this module's code,
// dropping runtime/testing noise.
func moduleStacks() string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out strings.Builder
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "madeus/") {
			fmt.Fprintf(&out, "%s\n\n", g)
		}
	}
	if out.Len() == 0 {
		return string(buf)
	}
	return out.String()
}
