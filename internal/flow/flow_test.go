package flow

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestValidateZeroValueDisabled(t *testing.T) {
	var cfg Config
	if err := cfg.Validate(); err != nil {
		t.Fatalf("zero Config must validate (fully disabled): %v", err)
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig must validate: %v", err)
	}
}

func TestValidateRejectsEveryBadField(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"neg ssl bytes", func(c *Config) { c.MaxSSLBytes = -1 }},
		{"neg target debt", func(c *Config) { c.PaceTargetDebt = -1 }},
		{"target debt above catch-up", func(c *Config) { c.PaceTargetDebt = CatchupDebt + 1 }},
		{"neg pace step", func(c *Config) { c.PaceStep = -time.Millisecond }},
		{"neg pace max", func(c *Config) { c.PaceMaxDelay = -1 }},
		{"pace max over ceiling", func(c *Config) { c.PaceMaxDelay = MaxPaceDelay + 1 }},
		{"pacing without step", func(c *Config) { c.PaceMaxDelay = time.Millisecond; c.PaceStep = 0 }},
		{"step over ceiling", func(c *Config) { c.PaceStep = MaxPaceDelay + 1 }},
		{"neg deadline", func(c *Config) { c.Deadline = -1 }},
		{"neg stall window", func(c *Config) { c.StallWindow = -1 }},
		{"neg sessions", func(c *Config) { c.MaxSessions = -1 }},
		{"neg queue", func(c *Config) { c.AdmitQueue = -1 }},
		{"queue without cap", func(c *Config) { c.AdmitQueue = 4; c.MaxSessions = 0 }},
		{"neg admit timeout", func(c *Config) { c.AdmitTimeout = -1 }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
		}
	}
}

// TestPaceTargetAtMostCatchupDebt: the controller releases its brake at
// PaceTargetDebt and Step 4 starts at CatchupDebt, so a paced target above
// the threshold could hold a migration where it never switches over.
// Equality is allowed, and so is any target while pacing is off.
func TestPaceTargetAtMostCatchupDebt(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PaceTargetDebt = CatchupDebt
	if err := cfg.Validate(); err != nil {
		t.Fatalf("target equal to the catch-up debt rejected: %v", err)
	}
	cfg.PaceTargetDebt = CatchupDebt + 1
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "PaceTargetDebt") {
		t.Fatalf("target above the catch-up debt with pacing on: err = %v", err)
	}
	cfg.PaceMaxDelay = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("target above the catch-up debt with pacing off rejected: %v", err)
	}
}

func TestGovernorSetRoundTrip(t *testing.T) {
	g, err := NewGovernor(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Every knob must be settable and render back.
	want := map[string]string{
		"max_ssl_bytes":      "4096",
		"pace_target_debt":   "8",
		"pace_step":          "2ms",
		"pace_max_delay":     "20ms",
		"max_transfer_bytes": "1048576",
		"deadline":           "1m0s",
		"stall_window":       "5s",
		"max_sessions":       "3",
		"admit_queue":        "2",
		"admit_timeout":      "100ms",
	}
	// pace_max_delay needs pace_step first; max_sessions before admit_queue.
	order := []string{"pace_step", "pace_max_delay", "max_sessions", "admit_queue"}
	for _, k := range order {
		if err := g.Set(k, want[k]); err != nil {
			t.Fatalf("Set(%s): %v", k, err)
		}
	}
	for k, v := range want {
		if err := g.Set(k, v); err != nil {
			t.Fatalf("Set(%s, %s): %v", k, v, err)
		}
	}
	cfg := g.Config()
	for _, k := range KnobNames() {
		if got := cfg.Knob(k); got != want[k] {
			t.Errorf("knob %s = %q, want %q", k, got, want[k])
		}
	}
	if err := g.Set("pace_max_delay", "1h"); err == nil {
		t.Fatal("Set must re-validate: pace_max_delay 1h accepted")
	}
	if err := g.Set("no_such_knob", "1"); err == nil {
		t.Fatal("unknown knob accepted")
	}
	if err := g.Set("deadline", "not-a-duration"); err == nil {
		t.Fatal("unparseable value accepted")
	}
	if cfg := g.Config(); cfg.PaceMaxDelay != 20*time.Millisecond {
		t.Fatalf("failed Set mutated config: pace_max_delay %v", cfg.PaceMaxDelay)
	}
}

func TestControllerLaw(t *testing.T) {
	cfg := Config{
		PaceTargetDebt: 10,
		PaceStep:       time.Millisecond,
		PaceMaxDelay:   8 * time.Millisecond,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	c := NewController(cfg)

	// Below target: stays open.
	if d := c.Tick(5); d != 0 {
		t.Fatalf("below target: delay %v, want 0", d)
	}
	// First sample above target: ramp seeds at PaceStep.
	if d := c.Tick(20); d != time.Millisecond {
		t.Fatalf("ramp seed: %v, want 1ms", d)
	}
	// Still diverging: multiplicative increase.
	if d := c.Tick(30); d != 2*time.Millisecond {
		t.Fatalf("MI step: %v, want 2ms", d)
	}
	if d := c.Tick(40); d != 4*time.Millisecond {
		t.Fatalf("MI step: %v, want 4ms", d)
	}
	// Shrinking but above target: hold.
	if d := c.Tick(35); d != 4*time.Millisecond {
		t.Fatalf("hold: %v, want 4ms", d)
	}
	// Diverging again: keep doubling, clamp at max.
	if d := c.Tick(50); d != 8*time.Millisecond {
		t.Fatalf("MI step: %v, want 8ms", d)
	}
	if d := c.Tick(60); d != 8*time.Millisecond {
		t.Fatalf("clamp: %v, want 8ms", d)
	}
	// Converged: multiplicative decay, then snap to zero.
	if d := c.Tick(10); d != 4*time.Millisecond {
		t.Fatalf("decay: %v, want 4ms", d)
	}
	if d := c.Tick(8); d != 2*time.Millisecond {
		t.Fatalf("decay: %v, want 2ms", d)
	}
	if d := c.Tick(3); d != time.Millisecond {
		t.Fatalf("decay: %v, want 1ms", d)
	}
	if d := c.Tick(0); d != 0 {
		t.Fatalf("snap to zero: %v, want 0", d)
	}

	// Pacing disabled: always zero regardless of debt.
	off := NewController(Config{})
	for _, debt := range []int{0, 100, 100000} {
		if d := off.Tick(debt); d != 0 {
			t.Fatalf("disabled controller returned %v for debt %d", d, debt)
		}
	}
}

func TestThrottleClampAndIdle(t *testing.T) {
	var th Throttle
	th.Set(-time.Second)
	if d := th.Delay(); d != 0 {
		t.Fatalf("negative Set: delay %v", d)
	}
	th.Set(time.Hour)
	if d := th.Delay(); d != MaxPaceDelay {
		t.Fatalf("ceiling clamp: delay %v, want %v", d, time.Duration(MaxPaceDelay))
	}
	// An idle Wait returns at once; its cost is pinned on the compiled
	// code by TestDisabledOverhead/TestFlowDisabledOverhead at the repo
	// root.
	th.Set(0)
	th.Wait()
	th.Set(5 * time.Millisecond)
	start := time.Now()
	th.Wait()
	if el := time.Since(start); el < 4*time.Millisecond {
		t.Fatalf("armed Wait returned after %v, want >= ~5ms", el)
	}
}

// watchdogSample is one Step 3 sample, at an offset from the attempt's start.
type watchdogSample struct {
	at            time.Duration
	applied, debt int
	sslBytes      int64
}

// watchdogCase feeds samples to a fresh watchdog and checks its verdict at
// an offset from the attempt's start.
type watchdogCase struct {
	name    string
	cfg     Config
	samples []watchdogSample
	at      time.Duration
	want    error
}

// runWatchdogCases drives the one migration judge through explicit sample
// times, no sleeps.
func runWatchdogCases(t *testing.T, cases []watchdogCase) {
	t.Helper()
	start := time.Unix(1000, 0)
	for _, tc := range cases {
		w := NewWatchdog(tc.cfg, start)
		for _, s := range tc.samples {
			w.Observe(s.applied, s.debt, s.sslBytes, start.Add(s.at))
		}
		if err := w.Check(start.Add(tc.at)); !errors.Is(err, tc.want) {
			t.Errorf("%s: Check = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestWatchdogDeadline: the deadline counts from the attempt's start, not
// from the first sample (Step 3 begins after the snapshot and restore).
func TestWatchdogDeadline(t *testing.T) {
	runWatchdogCases(t, []watchdogCase{
		{"before the deadline", Config{Deadline: time.Minute},
			[]watchdogSample{{at: 50 * time.Second}}, 59 * time.Second, nil},
		{"past the deadline", Config{Deadline: time.Minute},
			[]watchdogSample{{at: 50 * time.Second}}, 61 * time.Second, ErrDeadline},
	})
}

// TestWatchdogStall: an applied advance and a new debt low are progress; a
// flat or rising debt is not, so the window runs from the last gain.
func TestWatchdogStall(t *testing.T) {
	// Applied advances at t+8, debt reaches its low at t+16, then debt
	// holds flat at t+20 and rises at t+24: the last gain is t+16.
	nothingMoves := []watchdogSample{
		{0, 0, 100, 0}, {8 * time.Second, 1, 100, 0}, {16 * time.Second, 1, 90, 0},
		{20 * time.Second, 1, 90, 0}, {24 * time.Second, 1, 95, 0},
	}
	runWatchdogCases(t, []watchdogCase{
		{"applied advance is progress", Config{StallWindow: 10 * time.Second},
			nothingMoves[:2], 12 * time.Second, nil},
		{"debt low is progress", Config{StallWindow: 10 * time.Second},
			nothingMoves[:3], 20 * time.Second, nil},
		{"window not yet elapsed", Config{StallWindow: 10 * time.Second},
			nothingMoves, 25 * time.Second, nil},
		// Steady debt at t+20 must not reset the clock: a wedged slave
		// behind a paced source holds debt flat forever.
		{"stalled despite flat debt", Config{StallWindow: 10 * time.Second},
			nothingMoves, 27 * time.Second, ErrStalled},
	})
}

// TestWatchdogSSLCap: the cap judges the latest sample, a zero Config never
// fires, and a breach counts once (the manager aborts on the first).
func TestWatchdogSSLCap(t *testing.T) {
	runWatchdogCases(t, []watchdogCase{
		{"at the SSL cap", Config{MaxSSLBytes: 4096},
			[]watchdogSample{{0, 0, 0, 4096}}, time.Second, nil},
		{"past the SSL cap", Config{MaxSSLBytes: 4096},
			[]watchdogSample{{0, 0, 0, 4097}}, time.Second, ErrSSLOverflow},
		// A released prefix clears it.
		{"released below the SSL cap", Config{MaxSSLBytes: 4096},
			[]watchdogSample{{0, 0, 0, 8192}, {time.Second, 5, 0, 1024}}, time.Second, nil},
		{"zero config never fires", Config{},
			[]watchdogSample{{0, 0, 100, 1 << 40}}, 24 * time.Hour, nil},
	})

	start := time.Unix(1000, 0)
	overflows := Overflows()
	w := NewWatchdog(Config{MaxSSLBytes: 1}, start)
	w.Observe(0, 0, 2, start)
	if err := w.Check(start); !errors.Is(err, ErrSSLOverflow) || !strings.Contains(err.Error(), "cap breached") {
		t.Fatalf("Check = %v, want an ErrSSLOverflow naming the breached cap", err)
	}
	if d := Overflows() - overflows; d != 1 {
		t.Errorf("one breach counted %d times", d)
	}
}

func TestLimiterUnlimitedFastPath(t *testing.T) {
	g, _ := NewGovernor(Config{})
	l := NewLimiter("a", g)
	for i := 0; i < 100; i++ {
		release, err := l.Admit()
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	if n := l.InUse(); n != 0 {
		t.Fatalf("unlimited path leaked slots: %d", n)
	}
}

func TestLimiterCapQueueShed(t *testing.T) {
	g, err := NewGovernor(Config{MaxSessions: 2, AdmitQueue: 1, AdmitTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLimiter("a", g)

	r1, err := l.Admit()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := l.Admit()
	if err != nil {
		t.Fatal(err)
	}
	if n := l.InUse(); n != 2 {
		t.Fatalf("inUse %d, want 2", n)
	}

	// Third session queues; release hands it the slot.
	got := make(chan error, 1)
	var r3 func()
	go func() {
		var e error
		r3, e = l.Admit()
		got <- e
	}()
	waitFor(t, func() bool { return l.Waiting() == 1 })

	// Fourth overflows the queue: immediate typed shed.
	if _, err := l.Admit(); err == nil || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queue overflow: %v, want ErrOverloaded", err)
	} else {
		var oe *OverloadError
		if !errors.As(err, &oe) || oe.Reason != ReasonQueueFull || oe.Tenant != "a" {
			t.Fatalf("overflow error detail: %#v", err)
		}
		if !strings.Contains(oe.Error(), "overloaded") {
			t.Fatalf("error text: %q", oe.Error())
		}
	}

	r1() // hand the slot to the queued waiter
	if e := <-got; e != nil {
		t.Fatalf("queued admit: %v", e)
	}
	if n := l.InUse(); n != 2 {
		t.Fatalf("after handoff inUse %d, want 2", n)
	}
	r2()
	r3()
	if n := l.InUse(); n != 0 {
		t.Fatalf("after release inUse %d, want 0", n)
	}
	if n := l.Waiting(); n != 0 {
		t.Fatalf("after drain waiting %d, want 0", n)
	}
}

func TestLimiterAdmitTimeout(t *testing.T) {
	g, err := NewGovernor(Config{MaxSessions: 1, AdmitQueue: 4, AdmitTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLimiter("a", g)
	release, err := l.Admit()
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	start := time.Now()
	_, err = l.Admit()
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != ReasonAdmitTimeout {
		t.Fatalf("queued admit past timeout: %v, want admit-timeout overload", err)
	}
	if el := time.Since(start); el < 25*time.Millisecond || el > 2*time.Second {
		t.Fatalf("timeout waited %v, want ~30ms", el)
	}
	if n := l.Waiting(); n != 0 {
		t.Fatalf("timed-out waiter still queued: %d", n)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
