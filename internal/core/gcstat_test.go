package core

import (
	"runtime"
	"strings"
	"testing"
)

// TestReadGCCountsACycle: a collection between two readings shows up in
// both GC counters a migration report carries, and the report prints them.
func TestReadGCCountsACycle(t *testing.T) {
	g := readGC()
	runtime.GC()
	cpu, cycles := g.since()
	if cycles < 1 {
		t.Errorf("%d GC cycles across runtime.GC, want at least 1", cycles)
	}
	if cpu <= 0 {
		t.Errorf("GC CPU across runtime.GC = %v, want > 0", cpu)
	}
	rep := &Report{GCCPU: cpu, GCCycles: cycles}
	if s := rep.String(); !strings.Contains(s, " gc=") {
		t.Errorf("report %q does not show the GC counters", s)
	}
}
