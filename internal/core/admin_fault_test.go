//go:build faultinject

package core

import (
	"fmt"
	"strings"
	"testing"

	"madeus/internal/engine"
	"madeus/internal/fault"
)

// TestAdminFaultDrill drives README's fault drill over the admin channel,
// typed as madeusctl passes it on (FAULT and the words as given): a
// one-shot error arms core.step2.restore, the migration rolls back there
// and its retry succeeds, LIST shows each site's hits and firings, the
// other policies arm, RELEASE keeps a site armed and DISABLE and RESET
// disarm, SEED takes a number. Every subcommand's usage error follows.
func TestAdminFaultDrill(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	rig := newRig(t, 2, engine.Options{})
	admin := rig.connect(t, AdminDB)
	defer admin.Close()
	rig.provision(t, "shop", 20)
	exec := func(cmd string) *engine.Result {
		t.Helper()
		res, err := admin.Exec(cmd)
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		return res
	}
	list := func() string {
		t.Helper()
		var rows []string
		for _, r := range exec("FAULT list").Rows {
			rows = append(rows, fmt.Sprintf("%s %d %d", r[0].Str, r[1].Int, r[2].Int))
		}
		return strings.Join(rows, ", ")
	}
	where := func() string {
		t.Helper()
		return exec("STATUS").Rows[0][1].Str
	}

	if got := list(); got != "" {
		t.Fatalf("FAULT list before any enable: %q, want nothing armed", got)
	}
	exec("FAULT enable core.step2.restore error 1")
	if got := list(); got != "core.step2.restore 0 0" {
		t.Fatalf("FAULT list = %q, want the armed site, not hit yet", got)
	}
	if _, err := admin.Exec("MIGRATE shop TO node1"); err == nil || !strings.Contains(err.Error(), fault.ErrInjected.Error()) {
		t.Fatalf("migrate with core.step2.restore armed: %v, want the injected error", err)
	}
	rollback := ""
	for _, r := range exec("EVENTS SINCE 0 shop").Rows {
		if r[3].Str == "migrate.rollback" {
			rollback = r[4].Str
		}
	}
	if !strings.Contains(rollback, "step=step2.restore") {
		t.Fatalf("migrate.rollback event %q, want it at step2.restore", rollback)
	}
	if got := where(); got != "node0" {
		t.Fatalf("after the rollback shop is on %s, want node0", got)
	}
	exec("MIGRATE shop TO node1")
	if got := where(); got != "node1" {
		t.Fatalf("after the retry shop is on %s, want node1", got)
	}
	if got := list(); got != "core.step2.restore 2 1" {
		t.Fatalf("FAULT list = %q, want two hits and the one firing", got)
	}

	exec("FAULT enable core.step3.exec delay 5ms")
	exec("FAULT enable core.step1.chunk drop 3")
	exec("FAULT enable core.step1.restore hang")
	exec("FAULT enable core.step1.dump p 0.05")
	exec("FAULT seed 7")
	exec("FAULT release core.step1.restore")
	exec("FAULT disable core.step2.restore")
	want := "core.step1.chunk 0 0, core.step1.dump 0 0, core.step1.restore 0 0, core.step3.exec 0 0"
	if got := list(); got != want {
		t.Fatalf("FAULT list = %q, want %q", got, want)
	}
	exec("FAULT reset")
	if got := list(); got != "" {
		t.Fatalf("FAULT list after reset: %q, want nothing armed", got)
	}

	for _, tc := range []struct{ cmd, err string }{
		{"FAULT", "usage: FAULT LIST|ENABLE|DISABLE|RELEASE|RESET|SEED"},
		{"FAULT bogus", `unknown FAULT subcommand "bogus"`},
		{"FAULT seed", "usage: FAULT SEED <n>"},
		{"FAULT seed x", "usage: FAULT SEED <n>"},
		{"FAULT disable", "usage: FAULT DISABLE <site>"},
		{"FAULT release a b", "usage: FAULT RELEASE <site>"},
		{"FAULT enable core.step3.exec", "usage: FAULT ENABLE <site>"},
		{"FAULT enable core.step3.exec bogus", `unknown fault policy "bogus"`},
		{"FAULT enable core.step3.exec delay", "usage: FAULT ENABLE <site> DELAY <duration>"},
		{"FAULT enable core.step3.exec delay soon", `bad DELAY duration "soon"`},
		{"FAULT enable core.step3.exec p", "usage: FAULT ENABLE <site> P <probability>"},
		{"FAULT enable core.step3.exec p 2", `bad probability "2"`},
		{"FAULT enable core.step3.exec error -1", `bad fire count "-1"`},
		{"FAULT enable core.step3.exec error 1 2", "trailing arguments after fault policy"},
	} {
		if _, err := admin.Exec(tc.cmd); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: %v, want an error containing %q", tc.cmd, err, tc.err)
		}
	}
	if got := list(); got != "" {
		t.Errorf("FAULT list after the usage errors: %q, want nothing armed", got)
	}
}
