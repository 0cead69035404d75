package core

import (
	"fmt"
	"strings"
	"testing"

	"madeus/internal/engine"
	"madeus/internal/obs"
)

func TestAdminChannel(t *testing.T) {
	rig := newRig(t, 2, engine.Options{})
	admin := rig.connect(t, AdminDB)
	defer admin.Close()

	// Provision a tenant through the control channel.
	if _, err := admin.Exec("ADD TENANT shop ON node0"); err != nil {
		t.Fatal(err)
	}
	c := rig.connect(t, "shop")
	mustExecAll(t, c, "CREATE TABLE t (id INT PRIMARY KEY)", "INSERT INTO t (id) VALUES (1)")
	c.Close()

	// STATUS lists the tenant on node0 with its migration state columns.
	res, err := admin.Exec("STATUS")
	if err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"tenant", "node", "mlc", "state", "lag", "debt"}
	if len(res.Columns) != len(wantCols) {
		t.Fatalf("STATUS columns = %v, want %v", res.Columns, wantCols)
	}
	for i, c := range wantCols {
		if res.Columns[i] != c {
			t.Fatalf("STATUS columns = %v, want %v", res.Columns, wantCols)
		}
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "shop" || res.Rows[0][1].Str != "node0" {
		t.Fatalf("STATUS rows = %v", res.Rows)
	}
	if res.Rows[0][3].Str != "idle" || res.Rows[0][4].Int != 0 || res.Rows[0][5].Int != 0 {
		t.Fatalf("idle tenant state = %v", res.Rows[0][3:])
	}

	// Migrate via the control channel.
	res, err = admin.Exec("MIGRATE shop TO node1 STRATEGY B-MIN")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !strings.Contains(res.Rows[0][0].Str, "B-MIN") {
		t.Fatalf("MIGRATE report = %v", res.Rows)
	}
	res, err = admin.Exec("STATUS")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][1].Str != "node1" {
		t.Errorf("tenant still on %s", res.Rows[0][1].Str)
	}
}

func TestAdminStatsAndEvents(t *testing.T) {
	rig := newRig(t, 1, engine.Options{})
	admin := rig.connect(t, AdminDB)
	defer admin.Close()
	if _, err := admin.Exec("ADD TENANT shop ON node0"); err != nil {
		t.Fatal(err)
	}

	// Process-wide STATS includes the core worker counter.
	res, err := admin.Exec("STATS")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "metric" {
		t.Fatalf("STATS columns = %v", res.Columns)
	}
	found := false
	for _, row := range res.Rows {
		if row[0].Str == "core.worker.ops" {
			found = true
		}
	}
	if !found {
		t.Fatalf("STATS missing core.worker.ops; %d rows", len(res.Rows))
	}

	// Per-tenant STATS reflects the published migration phase.
	tn, _ := rig.mw.Tenant("shop")
	tn.setProgress("step3.propagate", nil)
	res, err = admin.Exec("STATS shop")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, row := range res.Rows {
		got[row[0].Str] = row[1].Str
	}
	if got["tenant"] != "shop" || got["node"] != "node0" || got["state"] != "step3.propagate" {
		t.Fatalf("STATS shop = %v", got)
	}
	// STATUS mirrors the same live phase.
	res, err = admin.Exec("STATUS")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][3].Str != "step3.propagate" {
		t.Fatalf("STATUS state = %v", res.Rows[0][3].Str)
	}
	tn.setProgress("", nil)

	if _, err := admin.Exec("STATS nope"); err == nil {
		t.Error("STATS nope: want error")
	}

	// EVENTS tails the tracer.
	obs.Trace.Emit("shop", "admintest.ping", obs.F("k", "v"))
	res, err = admin.Exec("EVENTS 500")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 5 || res.Columns[3] != "event" {
		t.Fatalf("EVENTS columns = %v", res.Columns)
	}
	found = false
	for _, row := range res.Rows {
		if row[3].Str == "admintest.ping" && row[2].Str == "shop" && row[4].Str == "k=v" {
			found = true
		}
	}
	if !found {
		t.Fatalf("EVENTS missing admintest.ping in %d rows", len(res.Rows))
	}
	for _, bad := range []string{"EVENTS 0", "EVENTS -3", "EVENTS x", "EVENTS 1 2"} {
		if _, err := admin.Exec(bad); err == nil {
			t.Errorf("Exec(%q): want error", bad)
		}
	}
}

func TestAdminErrors(t *testing.T) {
	rig := newRig(t, 1, engine.Options{})
	admin := rig.connect(t, AdminDB)
	defer admin.Close()
	for _, cmd := range []string{
		"",
		"FLY ME",
		"ADD TENANT x",
		"ADD TENANT x ON nope",
		"MIGRATE x TO node0",
		"MIGRATE x TO node0 STRATEGY warp",
		"MIGRATE x y z",
	} {
		if _, err := admin.Exec(cmd); err == nil {
			t.Errorf("Exec(%q): want error", cmd)
		}
	}
}

func TestParseStrategy(t *testing.T) {
	cases := map[string]Strategy{
		"madeus": Madeus, "Madeus": Madeus, "MADEUS": Madeus,
		"b-all": BAll, "BALL": BAll,
		"B-MIN": BMin, "bmin": BMin,
		"B-CON": BCon, "bcon": BCon,
	}
	for in, want := range cases {
		got, err := ParseStrategy(in)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseStrategy("turbo"); err == nil {
		t.Error("want error for unknown strategy")
	}
	// Round trip through String().
	for _, s := range Strategies() {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("round trip %v failed: %v %v", s, got, err)
		}
	}
}

// TestAdminScopeCommands drives the madeusscope admin surface end to end:
// EVENTS SINCE bookmarks, the merged TRACE view, and REMOVE TENANT
// teardown.
func TestAdminScopeCommands(t *testing.T) {
	rig := newRig(t, 2, engine.Options{})
	admin := rig.connect(t, AdminDB)
	defer admin.Close()

	tenant := "adminscope"
	if _, err := admin.Exec("ADD TENANT " + tenant + " ON node0"); err != nil {
		t.Fatal(err)
	}
	c := rig.connect(t, tenant)
	mustExecAll(t, c, "CREATE TABLE t (id INT PRIMARY KEY)", "INSERT INTO t (id) VALUES (1)")
	c.Close()
	if _, err := admin.Exec("MIGRATE " + tenant + " TO node1"); err != nil {
		t.Fatal(err)
	}

	// EVENTS SINCE: a bookmark past the ring's head returns nothing; a
	// zero bookmark returns the migration's events for the tenant.
	res, err := admin.Exec("EVENTS SINCE 0 " + tenant)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("EVENTS SINCE 0 returned no rows after a migration")
	}
	lastSeq := res.Rows[len(res.Rows)-1][0].Int
	res, err = admin.Exec(fmt.Sprintf("EVENTS SINCE %d %s", lastSeq+1, tenant))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("EVENTS SINCE past the head returned %d rows", len(res.Rows))
	}

	// TRACE: merged timeline with the step spans.
	res, err = admin.Exec("TRACE " + tenant)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.Columns, ","); got != "source,skew,seq,at,tenant,event,detail" {
		t.Fatalf("TRACE columns = %q", got)
	}
	names := map[string]bool{}
	for _, row := range res.Rows {
		names[row[5].Str] = true
	}
	for _, want := range []string{"migrate.begin", "step1.mts", "migrate.end"} {
		if !names[want] {
			t.Fatalf("TRACE missing %q; events: %v", want, names)
		}
	}
	if _, err := admin.Exec("TRACE nobody"); err == nil {
		t.Fatal("TRACE on unknown tenant must error")
	}

	// REMOVE TENANT tears the tenant down.
	if _, err := admin.Exec("REMOVE TENANT " + tenant); err != nil {
		t.Fatal(err)
	}
	if _, ok := rig.mw.Tenant(tenant); ok {
		t.Fatal("tenant survived REMOVE TENANT")
	}
	if _, err := admin.Exec("REMOVE TENANT " + tenant); err == nil {
		t.Fatal("removing a removed tenant must error")
	}
}
