package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"madeus/internal/cluster"
	"madeus/internal/engine"
	"madeus/internal/flow"
	"madeus/internal/obs"
	"madeus/internal/testutil"
)

// newScopedRig is newRig with a private observability scope per node, so
// node-side trace events land in per-node rings and the middleware must
// actually scrape them over the backend — the same shape as separate
// dbnode processes.
func newScopedRig(t *testing.T, nNodes int) *testRig {
	t.Helper()
	testutil.CheckGoroutines(t)
	mw, err := New(Options{Flow: flow.Config{Deadline: 30 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mw.Close)
	rig := &testRig{mw: mw}
	for i := 0; i < nNodes; i++ {
		name := fmt.Sprintf("node%d", i)
		n, err := cluster.NewNode(name, cluster.NodeOptions{
			Engine: engine.Options{},
			Scope:  obs.NewScope("scope-" + name),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		mw.AddNode(n)
		rig.nodes = append(rig.nodes, n)
	}
	return rig
}

// TestClusterTraceMergedTimeline migrates a tenant across nodes with
// private scopes and checks `madeusctl trace`'s data source: one merged
// timeline where the middleware's Step 1-4 spans and the dbnode-side wire
// events share the migration's MTS and span.
func TestClusterTraceMergedTimeline(t *testing.T) {
	rig := newScopedRig(t, 2)
	tenant := "scopetrace"
	rig.provision(t, tenant, 100)

	rep, err := rig.mw.Migrate(tenant, "node1", MigrateOptions{Strategy: Madeus})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MTS == 0 || rep.Span == 0 {
		t.Fatalf("report carries MTS=%d span=%d, want both nonzero", rep.MTS, rep.Span)
	}

	tl := rig.mw.Timeline(tenant, 0)
	if len(tl) == 0 {
		t.Fatal("empty merged timeline after a migration")
	}

	bySource := map[string]int{}
	steps := map[string]bool{}
	mtsWant := fmt.Sprint(rep.MTS)
	spanWant := fmt.Sprint(rep.Span)
	remoteStamped := 0
	for _, te := range tl {
		bySource[te.Source]++
		if te.Source == localSource {
			steps[te.Event.Name] = true
			continue
		}
		// Remote wire events must carry this migration's identity.
		fields := map[string]string{}
		for _, f := range te.Event.Fields {
			fields[f.Key] = f.Value
		}
		if !strings.HasPrefix(te.Event.Name, "wire.") {
			t.Fatalf("unexpected remote event %q from %s", te.Event.Name, te.Source)
		}
		if fields["mts"] == mtsWant && fields["span"] == spanWant {
			remoteStamped++
		}
	}
	for _, want := range []string{"migrate.begin", "step1.mts", "step2.restore", "step3.propagate", "step4.switchover", "migrate.end"} {
		if !steps[want] {
			t.Fatalf("middleware timeline missing %q; have %v", want, steps)
		}
	}
	// The destination always sees traced work (restore and catch-up happen
	// after the MTS is fixed).
	if bySource["node1"] == 0 {
		t.Fatalf("no events scraped from the destination node; sources: %v", bySource)
	}
	if remoteStamped == 0 {
		t.Fatalf("no remote event stamped with mts=%s span=%s; sources: %v", mtsWant, spanWant, bySource)
	}

	// Merged order: sorted on the middleware clock (skew-adjusted).
	for i := 1; i < len(tl); i++ {
		if tl[i].AdjustedAt().Before(tl[i-1].AdjustedAt()) {
			t.Fatalf("timeline out of order at %d: %v after %v", i, tl[i-1], tl[i])
		}
	}
}

// TestTimelineDedupsSharedScope: in-process nodes on the process scope
// would be scraped back as the middleware's own events; the instance-ID
// dedup must drop them so nothing appears twice.
func TestTimelineDedupsSharedScope(t *testing.T) {
	rig := newRig(t, 2, engine.Options{})
	tenant := "scopededup"
	rig.provision(t, tenant, 20)
	if _, err := rig.mw.Migrate(tenant, "node1", MigrateOptions{Strategy: Madeus}); err != nil {
		t.Fatal(err)
	}
	tl := rig.mw.Timeline(tenant, 0)
	if len(tl) == 0 {
		t.Fatal("empty timeline")
	}
	seen := map[string]bool{}
	for _, te := range tl {
		if te.Source != localSource {
			t.Fatalf("process-scope node leaked through dedup as source %q", te.Source)
		}
		key := fmt.Sprintf("%s/%d", te.Source, te.Event.Seq)
		if seen[key] {
			t.Fatalf("duplicate event %s in merged timeline", key)
		}
		seen[key] = true
	}
}

// failingScraper is a Backend whose scrape always fails: the timeline must
// degrade to a synthetic error event, not abort.
type failingScraper struct{ Backend }

func (failingScraper) ScrapeObs(uint64, string, int) (*obs.RemoteSnapshot, error) {
	return nil, errors.New("scrape boom")
}

func TestTimelineScrapeErrorIsSynthetic(t *testing.T) {
	rig := newRig(t, 1, engine.Options{})
	tenant := "scopeerr"
	rig.provision(t, tenant, 10)
	rig.mw.AddNode(failingScraper{Backend: rig.nodes[0]})

	found := false
	for _, te := range rig.mw.Timeline(tenant, 0) {
		if te.Event.Name == obsEvScrapeError {
			found = true
			if len(te.Event.Fields) == 0 || !strings.Contains(te.Event.Fields[0].Value, "scrape boom") {
				t.Fatalf("synthetic event lacks the cause: %v", te.Event)
			}
		}
	}
	if !found {
		t.Fatal("failing scraper produced no synthetic scrape.error event")
	}
}

// TestTenantGaugesRegistered: adding a tenant exposes its MLC, session,
// and SSL-depth gauges under the core.tenant. prefix.
func TestTenantGaugesRegistered(t *testing.T) {
	rig := newRig(t, 1, engine.Options{})
	tenant := "scopegauge"
	rig.provision(t, tenant, 10)
	want := map[string]bool{
		tenantMetricPrefix + tenant + ".mlc":       false,
		tenantMetricPrefix + tenant + ".sessions":  false,
		tenantMetricPrefix + tenant + ".ssl.depth": false,
	}
	for _, m := range obs.Default.Snapshot() {
		if _, ok := want[m.Name]; ok {
			want[m.Name] = true
		}
	}
	for name, found := range want {
		if !found {
			t.Fatalf("gauge %q not registered on AddTenant", name)
		}
	}
	if err := rig.mw.RemoveTenant(tenant); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveTenantUnregistersGauges: RemoveTenant takes the tenant's
// core.tenant. gauges out of the registry, and removing it again errors.
func TestRemoveTenantUnregistersGauges(t *testing.T) {
	rig := newRig(t, 1, engine.Options{})
	tenant := "scoperemove"
	rig.provision(t, tenant, 10)
	registered := func() []string {
		var names []string
		for _, m := range obs.Default.Snapshot() {
			if strings.HasPrefix(m.Name, tenantMetricPrefix+tenant+".") {
				names = append(names, m.Name)
			}
		}
		return names
	}
	if len(registered()) == 0 {
		t.Fatal("no tenant gauges registered on AddTenant")
	}
	if err := rig.mw.RemoveTenant(tenant); err != nil {
		t.Fatal(err)
	}
	if names := registered(); len(names) != 0 {
		t.Fatalf("tenant gauges survived RemoveTenant: %v", names)
	}
	if err := rig.mw.RemoveTenant(tenant); err == nil {
		t.Fatal("removing an unknown tenant must error")
	}
}
