//go:build !faultinject

package fault

import "testing"

// TestStubsAreInert pins the no-tag contract: Enabled is false and every
// entry point is a no-op, so armed-looking call sequences change nothing.
// The performance half of the contract (an Inject call compiles to
// nothing) is checked by TestDisabledOverhead/TestFaultDisabledOverhead at
// the repo root.
func TestStubsAreInert(t *testing.T) {
	if Enabled {
		t.Fatal("Enabled must be false without the faultinject tag")
	}
	Enable("x", Policy{Times: 1})
	defer Reset()
	if err := Inject("x"); err != nil {
		t.Fatalf("stub Inject returned %v", err)
	}
	if SiteHits("x") != 0 || SiteFired("x") != 0 || Hits() != 0 {
		t.Fatal("stub counters must stay zero")
	}
	if List() != nil {
		t.Fatal("stub List must be empty")
	}
	Release("x")
	Disable("x")
	Seed(1)
}
