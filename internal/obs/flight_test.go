package obs

import (
	"strings"
	"testing"
)

// TestFlightFIFOEviction fills the recorder past its cap and checks the
// oldest bundles fall out while IDs keep growing monotonically.
func TestFlightFIFOEviction(t *testing.T) {
	f := NewFlightRecorder(3)
	for i := 0; i < 5; i++ {
		id := f.Capture(Bundle{Tenant: "t", Reason: "rollback"})
		if id != i+1 {
			t.Fatalf("capture %d got id %d, want %d (monotonic from 1)", i, id, i+1)
		}
	}
	if f.Len() != 3 {
		t.Fatalf("Len=%d after 5 captures with cap 3", f.Len())
	}
	got := f.Bundles()
	for i, b := range got {
		if want := i + 3; b.ID != want {
			t.Fatalf("bundle %d has ID %d, want %d (oldest evicted first)", i, b.ID, want)
		}
		if b.At.IsZero() {
			t.Fatalf("bundle %d has zero timestamp", i)
		}
	}
	if _, ok := f.Get(1); ok {
		t.Fatal("evicted bundle 1 still retrievable")
	}
	if b, ok := f.Get(4); !ok || !strings.Contains(b.Reason, "rollback") {
		t.Fatalf("Get(4) = %+v, %v; want retained rollback bundle", b, ok)
	}

	// Reset drops bundles but never reuses IDs.
	f.Reset()
	if f.Len() != 0 {
		t.Fatalf("Len=%d after Reset", f.Len())
	}
	if id := f.Capture(Bundle{}); id != 6 {
		t.Fatalf("post-Reset capture got id %d, want 6", id)
	}
}

// TestFlightCapFloor: a nonsensical cap still retains the latest bundle.
func TestFlightCapFloor(t *testing.T) {
	f := NewFlightRecorder(0)
	f.Capture(Bundle{Reason: "first"})
	f.Capture(Bundle{Reason: "second"})
	if f.Len() != 1 {
		t.Fatalf("Len=%d with cap floor, want 1", f.Len())
	}
	if got := f.Bundles()[0].Reason; got != "second" {
		t.Fatalf("retained %q, want the newest bundle", got)
	}
}
