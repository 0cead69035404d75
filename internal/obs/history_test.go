package obs

import (
	"testing"
	"time"
)

func histAt(base time.Time, offset time.Duration, ops int64) Sample {
	return Sample{At: base.Add(offset), Ops: ops, Lag: ops % 7, Debt: ops % 11}
}

// TestHistoryRingWraparound fills a ring well past its capacity and checks
// the survivors are exactly the newest cap samples, oldest first.
func TestHistoryRingWraparound(t *testing.T) {
	h := NewHistory(16)
	base := time.Now()
	for i := 0; i < 40; i++ {
		h.Record("t", histAt(base, time.Duration(i)*time.Second, int64(i)))
	}
	got := h.Last("t", -1)
	if len(got) != 16 {
		t.Fatalf("got %d samples after wraparound, want 16", len(got))
	}
	for i, s := range got {
		if want := int64(24 + i); s.Ops != want {
			t.Fatalf("sample %d has Ops=%d, want %d (oldest-first after eviction)", i, s.Ops, want)
		}
	}
	if tail := h.Last("t", 5); len(tail) != 5 || tail[4].Ops != 39 {
		t.Fatalf("Last(5) = %d samples ending Ops=%d, want 5 ending 39", len(tail), tail[len(tail)-1].Ops)
	}
	if h.Last("nobody", -1) != nil {
		t.Fatal("unknown tenant must yield nil, not an empty ring")
	}
}

// TestHistoryEmptyWindow pins the zero-value behaviour: windows with no
// samples summarize to the zero WindowStats instead of NaN averages.
func TestHistoryEmptyWindow(t *testing.T) {
	h := NewHistory(16)
	base := time.Now()
	h.Record("t", histAt(base, 0, 1))

	if got := h.Window("t", base.Add(time.Hour), time.Time{}); len(got) != 0 {
		t.Fatalf("future-from window returned %d samples, want 0", len(got))
	}
	st := Summarize(nil)
	if st.Count != 0 || st.Lag.Avg != 0 || st.OpsPerSec.Max != 0 {
		t.Fatalf("Summarize(nil) = %+v, want zero stats", st)
	}
	if st := h.Stats("nobody", 0); st.Count != 0 {
		t.Fatalf("Stats on unknown tenant has Count=%d, want 0", st.Count)
	}
}

// TestHistoryOpsPerSec checks the throughput derivation across a cadence
// change: the rate always uses the actual inter-sample gap, so retuning the
// sampler mid-series cannot distort the curve.
func TestHistoryOpsPerSec(t *testing.T) {
	h := NewHistory(16)
	base := time.Now()

	h.Record("t", histAt(base, 0, 0))
	h.Record("t", histAt(base, time.Second, 100))   // 100 ops over 1s
	h.Record("t", histAt(base, 3*time.Second, 500)) // 400 ops over 2s (cadence doubled)
	h.Record("t", histAt(base, 4*time.Second, 400)) // counter went backwards: no rate
	h.Record("t", histAt(base, 4*time.Second, 450)) // zero dt: no rate

	got := h.Last("t", -1)
	want := []float64{0, 100, 200, 0, 0}
	if len(got) != len(want) {
		t.Fatalf("got %d samples, want %d", len(got), len(want))
	}
	for i, s := range got {
		if s.OpsPerSec != want[i] {
			t.Fatalf("sample %d OpsPerSec=%v, want %v", i, s.OpsPerSec, want[i])
		}
	}

	st := h.Stats("t", 0)
	if st.Count != 5 || st.OpsPerSec.Max != 200 {
		t.Fatalf("Stats = count %d max ops/s %d, want 5 and 200", st.Count, st.OpsPerSec.Max)
	}
}

// TestHistoryDropAndTenants checks per-tenant teardown removes the series.
func TestHistoryDropAndTenants(t *testing.T) {
	h := NewHistory(16)
	base := time.Now()
	h.Record("a", histAt(base, 0, 1))
	h.Record("b", histAt(base, 0, 1))
	if got := h.Tenants(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Tenants() = %v, want [a b]", got)
	}
	h.Drop("a")
	if got := h.Tenants(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("Tenants() after Drop = %v, want [b]", got)
	}
	if h.Last("a", -1) != nil {
		t.Fatal("dropped tenant still has samples")
	}
	if snap := h.Snapshot(-1); len(snap["b"]) != 1 {
		t.Fatalf("Snapshot missing surviving tenant: %v", snap)
	}
}
