package madeus

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"madeus/internal/fault"
	"madeus/internal/flow"
	"madeus/internal/obs"
)

// fixturePkg holds one //go:noinline loop per disabled hot-path site
// (testdata/disabledcost).
const fixturePkg = "madeus/testdata/disabledcost"

// overheadCase is one disabled-cost contract: a cross-cutting layer that is
// compiled out (invariant, fault without its tag) or idle (an unarmed
// fault registry, an unpaced throttle) must cost a hot loop nothing beyond
// an inlined atomic load — no call other than the goroutine stack check
// and the layer's one declared slow path, and no allocation. A call that
// no longer inlines, a lock, a map lookup or an escaping allocation each
// shows up in the compiled loop as a call the contract does not allow.
type overheadCase struct {
	// name is the guard's historical top-level test name, kept as the
	// subtest name so docs and `-run` patterns still find it.
	name string
	// loop is the fixture's function exercising the layer's sites.
	loop string
	// slow is the layer's one declared slow path (the outlined body an
	// armed site reaches), or "".
	slow string
	// noAlloc are the site bodies that must not allocate, keyed by what
	// they exercise.
	noAlloc func(t *testing.T) map[string]func()
}

var overheadCases = []overheadCase{
	{
		// Without the `invariants` build tag, Assert, Assertf and Check
		// inline to nothing.
		name: "TestInvariantZeroOverhead",
		loop: "loopAssert",
	},
	{
		// Without -tags faultinject every fault.Inject site compiles to
		// nothing; with the tag an unarmed registry costs one inlined
		// atomic load in front of the outlined inject.
		name: "TestFaultDisabledOverhead",
		loop: "loopInject",
		slow: "madeus/internal/fault.inject",
		noAlloc: func(t *testing.T) map[string]func() {
			return map[string]func(){
				"disarmed fault site": func() { _ = fault.Inject("guard.hotpath.op") },
			}
		},
	},
	{
		// A tenant that is not being paced pays one inlined atomic load
		// per commit at Throttle.Wait, and a tenant with no session cap
		// pays one config load per connection at Admit. Backpressure that
		// is off has to be free, or it could never sit on the commit path
		// of every tenant.
		name: "TestFlowDisabledOverhead",
		loop: "loopWait",
		slow: "madeus/internal/flow.pace",
		noAlloc: func(t *testing.T) map[string]func() {
			th := new(flow.Throttle) // zero value: delay 0, the idle state
			gov, err := flow.NewGovernor(flow.Config{})
			if err != nil {
				t.Fatal(err)
			}
			lim := flow.NewLimiter("overhead", gov)
			return map[string]func(){
				"idle Throttle.Wait": th.Wait,
				"uncapped Admit": func() {
					release, err := lim.Admit()
					if err != nil {
						t.Fatal(err)
					}
					release()
				},
			}
		},
	},
}

// TestDisabledOverhead checks every disabled-cost contract of the table on
// the compiled code: the fixture is built plain and with -tags faultinject
// (never with -race, whatever this test binary was built with), and each
// of its loops may call only the stack check and its layer's slow path.
// Then the site bodies are run for allocations.
func TestDisabledOverhead(t *testing.T) {
	listings := map[string]map[string][]string{
		"plain":       fixtureCalls(t, ""),
		"faultinject": fixtureCalls(t, "faultinject"),
	}
	for _, tc := range overheadCases {
		t.Run(tc.name, func(t *testing.T) {
			for build, calls := range listings {
				callees, ok := calls["main."+tc.loop]
				if !ok {
					t.Fatalf("%s build: no main.%s in the fixture's listing", build, tc.loop)
				}
				for _, callee := range callees {
					if !strings.HasPrefix(callee, "runtime.morestack") && callee != tc.slow {
						t.Errorf("%s build: main.%s calls %q; allowed: the stack check and %q",
							build, tc.loop, callee, tc.slow)
					}
				}
			}
			if tc.noAlloc == nil {
				return
			}
			for what, body := range tc.noAlloc(t) {
				if allocs := testing.AllocsPerRun(1000, body); allocs != 0 {
					t.Errorf("%s allocates %.1f objects/op", what, allocs)
				}
			}
		})
	}
}

// fixtureCalls builds the fixture with the given tags and returns, for each
// function in its assembly listing, the symbols its call relocations name
// ("" for an indirect call).
func fixtureCalls(t *testing.T, tags string) map[string][]string {
	t.Helper()
	args := []string{"build", "-gcflags=" + fixturePkg + "=-S", "-o", filepath.Join(t.TempDir(), "disabledcost")}
	if tags != "" {
		args = append(args, "-tags", tags)
	}
	cmd := exec.Command("go", append(args, "./testdata/disabledcost")...)
	cmd.Env = append(os.Environ(), "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	calls := make(map[string][]string)
	var fn string
	for _, line := range strings.Split(string(out), "\n") {
		// A function starts with "<symbol> STEXT ..." at column 0; its
		// relocations read "\trel <off>+<size> t=R_CALL... <symbol>+<add>".
		if sym, _, ok := strings.Cut(line, " STEXT"); ok && !strings.HasPrefix(line, "\t") {
			fn = sym
			calls[fn] = nil
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != "rel" || !strings.HasPrefix(f[2], "t=R_CALL") {
			continue
		}
		callee := ""
		if len(f) > 3 {
			callee = f[3][:strings.LastIndexByte(f[3], '+')]
		}
		calls[fn] = append(calls[fn], callee)
	}
	return calls
}

// BenchmarkObsCounterEnabled measures the hot-path cost of one sharded
// counter increment (the per-op price of obs).
func BenchmarkObsCounterEnabled(b *testing.B) {
	reg := obs.NewRegistry()
	ctr := reg.NewCounter("bench.relay.ops", "")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			ctr.Add(1)
		}
	})
}

// BenchmarkFaultInjectDisarmed measures the per-op price of a fault site in
// whichever build flavor is under test (a pure no-op without the tag, one
// atomic load with it).
func BenchmarkFaultInjectDisarmed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = fault.Inject("bench.hotpath.op")
	}
}

// BenchmarkThrottleWaitIdle measures the per-commit price of the pace point
// when no migration is braking the tenant — the steady state for every
// commit in the system.
func BenchmarkThrottleWaitIdle(b *testing.B) {
	var th flow.Throttle
	for i := 0; i < b.N; i++ {
		th.Wait()
	}
}

// BenchmarkAdmitUncapped measures the per-connection price of admission
// control when MaxSessions is 0 (unlimited).
func BenchmarkAdmitUncapped(b *testing.B) {
	gov, err := flow.NewGovernor(flow.Config{})
	if err != nil {
		b.Fatal(err)
	}
	lim := flow.NewLimiter("bench", gov)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		release, err := lim.Admit()
		if err != nil {
			b.Fatal(err)
		}
		release()
	}
}
