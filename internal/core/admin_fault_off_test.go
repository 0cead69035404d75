//go:build !faultinject

package core

import (
	"strings"
	"testing"

	"madeus/internal/engine"
)

// TestAdminFaultNotCompiledIn: without the faultinject tag every FAULT
// subcommand, well formed or not, answers that failpoints are not compiled
// in, and arms nothing.
func TestAdminFaultNotCompiledIn(t *testing.T) {
	rig := newRig(t, 1, engine.Options{})
	admin := rig.connect(t, AdminDB)
	defer admin.Close()
	for _, cmd := range []string{
		"FAULT", "FAULT list", "FAULT enable core.step2.restore error 1",
		"FAULT disable core.step2.restore", "FAULT release core.step2.restore",
		"FAULT reset", "FAULT seed 7", "FAULT bogus",
	} {
		_, err := admin.Exec(cmd)
		if err == nil || !strings.Contains(err.Error(), "fault injection not compiled in (rebuild with -tags faultinject)") {
			t.Errorf("%s: %v, want the not-compiled-in error", cmd, err)
		}
	}
}
