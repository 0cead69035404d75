package madeus

import (
	"fmt"
	"testing"

	"madeus/internal/fault"
	"madeus/internal/flow"
	"madeus/internal/invariant"
	"madeus/internal/obs"
)

// overheadSink keeps the guarded loops from being optimized away; the bare
// and the instrumented loop pay for it alike.
var overheadSink uint64

// overheadCase is one disabled-cost contract: a cross-cutting layer that is
// switched off (by build tag or by runtime flag) must cost a hot loop
// nothing — no allocation, and a per-iteration time within noise of the
// bare loop. The guards are deliberately lenient; they exist to catch a
// layer regressing into real per-op work (a call that no longer inlines, a
// lock, a map lookup, an allocation), not to police nanoseconds.
type overheadCase struct {
	// name is the guard's historical top-level test name, kept as the
	// subtest name so docs and `-run` patterns still find it.
	name string
	// skip returns why the guard does not apply to this build, or "".
	skip func() string
	// atomics marks a disabled path made of atomic loads: under -race
	// those become instrumented calls and the ratio would measure the
	// detector, so verify.sh runs these guards in its no-race step.
	atomics bool
	// ratio and slackNs bound the instrumented loop at ratio*bare+slackNs.
	ratio, slackNs float64
	// setup puts the layer in its disabled state and returns the
	// instrumented loop (the bare loop plus the layer's hot-path pattern)
	// and the bodies that must not allocate, keyed by what they exercise.
	setup func(t *testing.T) (instrumented func(b *testing.B), noAlloc map[string]func())
}

var overheadCases = []overheadCase{
	{
		// Without the `invariants` build tag, Assert must inline to
		// nothing. A true no-op, so the guard holds under -race too.
		name: "TestInvariantZeroOverhead",
		skip: func() string {
			if invariant.Enabled {
				return "invariants tag active: assertions intentionally do work"
			}
			return ""
		},
		ratio: 3, slackNs: 1,
		setup: func(t *testing.T) (func(b *testing.B), map[string]func()) {
			return func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					invariant.Assert(overheadSink >= 0, "sink underflow")
					invariant.Assertf(i >= 0, "negative loop index %d", i)
					overheadSink += uint64(i)
				}
			}, nil
		},
	},
	{
		// With obs disabled, the instrumentation pattern of the worker
		// relay path — a Counter.Add plus an On()-guarded trace emit —
		// must cost no more than two atomic-load branches. The guarded
		// emit must not allocate (the field build is skipped behind
		// On()), or every relayed op would pay it.
		name:    "TestObsDisabledOverhead",
		atomics: true,
		ratio:   4, slackNs: 2,
		setup: func(t *testing.T) (func(b *testing.B), map[string]func()) {
			reg := obs.NewRegistry()
			ctr := reg.NewCounter("guard.relay.ops", "")
			tr := obs.NewTracer(64)
			obs.SetEnabled(false)
			t.Cleanup(func() { obs.SetEnabled(true) })
			return func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						ctr.Add(1)
						if obs.On() {
							tr.Emit("guard", "relay", obs.F("i", i))
						}
						overheadSink += uint64(i)
					}
				}, map[string]func(){
					"disabled counter + guarded emit": func() {
						ctr.Add(1)
						if obs.On() {
							tr.Emit("guard", "relay", obs.F("x", 1))
						}
					},
				}
		},
	},
	{
		// The madeusscope additions: with obs disabled, the wire
		// client's per-query "plain or traced frame?" check and a
		// History.Record must each stay an atomic-load branch.
		name:    "TestScopeDisabledOverhead",
		atomics: true,
		ratio:   4, slackNs: 2,
		setup: func(t *testing.T) (func(b *testing.B), map[string]func()) {
			hist := obs.NewHistory(64)
			obs.SetEnabled(false)
			t.Cleanup(func() { obs.SetEnabled(true) })
			t.Cleanup(func() {
				if got := hist.Last("guard", -1); got != nil {
					t.Errorf("disabled History.Record stored %d samples", len(got))
				}
			})
			// Mirror of wire.Client.sendQuery's guard: a non-nil context
			// still sends plain frames while obs is off, deciding on one
			// atomic load.
			type traceCtx struct{ mts, span uint64 }
			tc := &traceCtx{mts: 1, span: 1}
			return func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if tc != nil && obs.On() {
							panic("unreachable: obs is disabled")
						}
						hist.Record("guard", obs.Sample{Lag: int64(i)})
						overheadSink += uint64(i)
					}
				}, map[string]func(){
					"disabled trace check + History.Record": func() {
						if tc != nil && obs.On() {
							panic("unreachable: obs is disabled")
						}
						hist.Record("guard", obs.Sample{Lag: 1})
					},
				}
		},
	},
	{
		// Without -tags faultinject every fault.Inject site compiles to a
		// no-op stub; with the tag an UNARMED registry may cost at most
		// one atomic load, which the same lenient ratio covers.
		name:    "TestFaultDisabledOverhead",
		atomics: true,
		ratio:   4, slackNs: 2,
		setup: func(t *testing.T) (func(b *testing.B), map[string]func()) {
			if fault.Enabled {
				// Keep the armed-registry state of other faultinject
				// tests from polluting the measurement.
				fault.Reset()
			}
			const site = "guard.hotpath.op"
			return func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if err := fault.Inject(site); err != nil {
							b.Fatal(err)
						}
						overheadSink += uint64(i)
					}
				}, map[string]func(){
					"disarmed fault site": func() { _ = fault.Inject(site) },
				}
		},
	},
	{
		// A tenant that is not being paced pays one atomic load per
		// commit at the Throttle.Wait site, and a tenant with no session
		// cap pays one config load per connection at Admit. Backpressure
		// that is off has to be free, or it could never sit on the
		// commit path of every tenant.
		name:    "TestFlowDisabledOverhead",
		atomics: true,
		ratio:   4, slackNs: 2,
		setup: func(t *testing.T) (func(b *testing.B), map[string]func()) {
			th := new(flow.Throttle) // zero value: delay 0, the disabled state
			gov, err := flow.NewGovernor(flow.Config{})
			if err != nil {
				t.Fatal(err)
			}
			lim := flow.NewLimiter("overhead", gov)
			return func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						th.Wait()
						overheadSink += uint64(i)
					}
				}, map[string]func(){
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

// TestDisabledOverhead runs every disabled-cost guard of the table over one
// measurement: zero allocations, then the instrumented loop against the
// bare loop.
func TestDisabledOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	bare := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			overheadSink += uint64(i)
		}
	}
	for _, tc := range overheadCases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.skip != nil {
				if why := tc.skip(); why != "" {
					t.Skip(why)
				}
			}
			if tc.atomics && raceEnabled {
				t.Skip("race detector instruments atomics; run without -race")
			}
			instrumented, noAlloc := tc.setup(t)
			for what, body := range noAlloc {
				if allocs := testing.AllocsPerRun(1000, body); allocs != 0 {
					t.Fatalf("%s allocates %.1f objects/op", what, allocs)
				}
			}
			// Timing on a shared machine is noisy; pass if ANY attempt
			// lands under the (already generous) bound.
			const attempts = 5
			var last string
			for try := 0; try < attempts; try++ {
				nsBare := float64(testing.Benchmark(bare).NsPerOp())
				nsInst := float64(testing.Benchmark(instrumented).NsPerOp())
				if nsBare <= 0 {
					nsBare = 0.1
				}
				if nsInst <= tc.ratio*nsBare+tc.slackNs {
					return
				}
				last = fmt.Sprintf("%.1fns/op vs %.1fns/op (%.1fx)", nsInst, nsBare, nsInst/nsBare)
			}
			t.Fatalf("disabled layer is not free: instrumented loop ran at %s across %d attempts", last, attempts)
		})
	}
}

// BenchmarkObsCounterEnabled measures the enabled hot-path cost of one
// sharded counter increment (the per-op price of leaving obs on).
func BenchmarkObsCounterEnabled(b *testing.B) {
	reg := obs.NewRegistry()
	ctr := reg.NewCounter("bench.relay.ops", "")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			ctr.Add(1)
		}
	})
}

// BenchmarkObsCounterDisabled measures the disabled cost (the guard's
// subject, in benchmark form for `go test -bench`).
func BenchmarkObsCounterDisabled(b *testing.B) {
	reg := obs.NewRegistry()
	ctr := reg.NewCounter("bench.relay.off", "")
	obs.SetEnabled(false)
	defer obs.SetEnabled(true)
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
