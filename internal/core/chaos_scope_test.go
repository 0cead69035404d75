//go:build faultinject

package core

import (
	"strings"
	"testing"
	"time"

	"madeus/internal/engine"
	"madeus/internal/fault"
)

// TestChaosRollbackEvent kills a migration at Step 3 and checks the
// migrate.rollback event records the state at the moment of death: the
// failing step, the migration identity and the fault state, on the report's
// timeline and over the admin channel.
func TestChaosRollbackEvent(t *testing.T) {
	t.Cleanup(fault.Reset)
	rig := newRig(t, 2, engine.Options{})
	tenant := "rollbackev"
	rig.provision(t, tenant, 120)

	// Writes keep flowing so Step 3 has syncset operations to propagate —
	// the armed failpoint sits on the propagation path.
	stop := make(chan struct{})
	done := make(chan int, 1)
	go loadgen(t, rig, tenant, 0, 3*time.Millisecond, stop, done)
	time.Sleep(30 * time.Millisecond)

	fault.Enable(faultStep3Propagate, fault.Policy{Times: 1})
	rep, err := rig.mw.Migrate(tenant, "node1", MigrateOptions{Strategy: Madeus})
	fault.Reset()
	close(stop)
	<-done

	if err == nil {
		t.Fatal("migration succeeded; want the injected step3 failure")
	}
	if rep == nil || !rep.Failed || rep.RollbackStep != "step3.propagate" {
		t.Fatalf("rollback report = %+v, want failure at step3.propagate", rep)
	}

	var rollback []string
	for _, e := range rep.Timeline {
		if e.Name != "migrate.rollback" {
			continue
		}
		detail := map[string]string{}
		for _, f := range e.Fields {
			detail[f.Key] = f.Value
			rollback = append(rollback, f.Key+"="+f.Value)
		}
		for _, key := range []string{"step", "err", "source", "dest", "mts", "span", "flow.sessions", "fault.sites"} {
			if _, ok := detail[key]; !ok {
				t.Fatalf("migrate.rollback detail missing %q: %v", key, e.Fields)
			}
		}
		if detail["step"] != "step3.propagate" || detail["dest"] != "node1" {
			t.Fatalf("migrate.rollback detail = %v, want step3.propagate to node1", detail)
		}
		// The fault registry state at rollback must show the armed site.
		if !strings.Contains(detail["fault.sites"], faultStep3Propagate) {
			t.Fatalf("migrate.rollback fault.sites = %q, want %q listed", detail["fault.sites"], faultStep3Propagate)
		}
	}
	if rollback == nil {
		t.Fatalf("report timeline lacks migrate.rollback: %v", rep.Timeline)
	}

	// The operator reads the same event over the admin channel.
	admin := rig.connect(t, AdminDB)
	defer admin.Close()
	res, err := admin.Exec("EVENTS SINCE 0 " + tenant)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range res.Rows {
		if row[3].Str == "migrate.rollback" && row[4].Str == strings.Join(rollback, " ") {
			found = true
		}
	}
	if !found {
		t.Fatalf("EVENTS SINCE 0 %s lacks the migrate.rollback event %q", tenant, rollback)
	}

	// The tenant must be fully recovered: a follow-up migration succeeds.
	if _, err := rig.mw.Migrate(tenant, "node1", MigrateOptions{Strategy: Madeus}); err != nil {
		t.Fatalf("remigration after rollback failed: %v", err)
	}
}
