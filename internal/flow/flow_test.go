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
		{"neg decay", func(c *Config) { c.PaceDecay = -0.1 }},
		{"decay >= 1", func(c *Config) { c.PaceDecay = 1.0 }},
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
		"pace_decay":         "0.25",
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
	if err := g.Set("pace_decay", "2"); err == nil {
		t.Fatal("Set must re-validate: pace_decay 2 accepted")
	}
	if err := g.Set("no_such_knob", "1"); err == nil {
		t.Fatal("unknown knob accepted")
	}
	if err := g.Set("deadline", "not-a-duration"); err == nil {
		t.Fatal("unparseable value accepted")
	}
	if cfg := g.Config(); cfg.PaceDecay != 0.25 {
		t.Fatalf("failed Set mutated config: decay %v", cfg.PaceDecay)
	}
}

func TestControllerLaw(t *testing.T) {
	cfg := Config{
		PaceTargetDebt: 10,
		PaceStep:       time.Millisecond,
		PaceMaxDelay:   8 * time.Millisecond,
		PaceDecay:      0.5,
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
	th.Set(0)
	start := time.Now()
	for i := 0; i < 1000; i++ {
		th.Wait()
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("idle Wait too slow: %v for 1000 calls", el)
	}
	th.Set(5 * time.Millisecond)
	start = time.Now()
	th.Wait()
	if el := time.Since(start); el < 4*time.Millisecond {
		t.Fatalf("armed Wait returned after %v, want >= ~5ms", el)
	}
}

func TestWatchdogDeadline(t *testing.T) {
	start := time.Now()
	w := NewWatchdog(Config{Deadline: time.Minute}, start)
	if err := w.Check(start.Add(59 * time.Second)); err != nil {
		t.Fatalf("before deadline: %v", err)
	}
	if err := w.Check(start.Add(61 * time.Second)); !errors.Is(err, ErrDeadline) {
		t.Fatalf("past deadline: %v, want ErrDeadline", err)
	}
}

func TestWatchdogStall(t *testing.T) {
	start := time.Now()
	w := NewWatchdog(Config{StallWindow: 10 * time.Second}, start)
	w.Observe(0, 100, start)
	// Applied advances: progress.
	w.Observe(1, 100, start.Add(8*time.Second))
	if err := w.Check(start.Add(12 * time.Second)); err != nil {
		t.Fatalf("progress at t+8 must reset the stall clock: %v", err)
	}
	// Debt reaches a new low: progress even with applied flat.
	w.Observe(1, 90, start.Add(16*time.Second))
	if err := w.Check(start.Add(20 * time.Second)); err != nil {
		t.Fatalf("debt low at t+16 must reset the stall clock: %v", err)
	}
	// Nothing moves: stall fires after the window.
	w.Observe(1, 90, start.Add(20*time.Second))
	w.Observe(1, 95, start.Add(24*time.Second)) // debt rising is not progress
	if err := w.Check(start.Add(25 * time.Second)); err != nil {
		t.Fatalf("window not yet elapsed: %v", err)
	}
	if err := w.Check(start.Add(27 * time.Second)); !errors.Is(err, ErrStalled) {
		t.Fatalf("stalled: %v, want ErrStalled", err)
	}

	// Disabled watchdog never fires.
	idle := NewWatchdog(Config{}, start)
	idle.Observe(0, 100, start)
	if err := idle.Check(start.Add(24 * time.Hour)); err != nil {
		t.Fatalf("disabled watchdog fired: %v", err)
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
