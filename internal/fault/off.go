//go:build !faultinject

package fault

// Enabled reports whether failpoints are compiled in. In this build they
// are not: every function below is an inlinable no-op and Inject always
// returns nil, so a production binary pays nothing for the sites threaded
// through its hot paths (checked on the compiled code by
// TestDisabledOverhead/TestFaultDisabledOverhead at the repo root).
const Enabled = false

// Inject is the no-op stub; sites always pass.
func Inject(site string) error { return nil }

// Enable is a no-op without the faultinject tag.
func Enable(site string, p Policy) {}

// Disable is a no-op without the faultinject tag.
func Disable(site string) {}

// Reset is a no-op without the faultinject tag.
func Reset() {}

// Release is a no-op without the faultinject tag.
func Release(site string) {}

// Seed is a no-op without the faultinject tag.
func Seed(seed int64) {}

// SiteHits reports 0 without the faultinject tag.
func SiteHits(site string) uint64 { return 0 }

// SiteFired reports 0 without the faultinject tag.
func SiteFired(site string) uint64 { return 0 }

// Hits reports 0 without the faultinject tag.
func Hits() uint64 { return 0 }

// List reports nothing without the faultinject tag.
func List() []string { return nil }
