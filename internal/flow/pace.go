package flow

import (
	"sync/atomic"
	"time"

	"madeus/internal/fault"
)

// faultPaceWait lets the chaos suite observe or distort the commit-side
// pace point (e.g. inflate delays to prove the MaxPaceDelay clamp holds
// end to end).
const faultPaceWait = "flow.pace.wait"

// Throttle is the per-tenant commit brake. The migration manager's
// controller Sets it; every source-side commit of that tenant calls Wait.
// Idle (delay 0, the steady state and the disabled state) it costs one
// atomic load — the same contract as an unarmed fault site.
type Throttle struct {
	delay atomic.Int64 // nanoseconds; 0 = open
}

// Set installs a new per-commit delay, clamped to [0, MaxPaceDelay].
func (th *Throttle) Set(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if d > MaxPaceDelay {
		d = MaxPaceDelay
	}
	th.delay.Store(int64(d))
	obsPaceGauge.Set(int64(d))
}

// Delay returns the currently applied per-commit delay.
func (th *Throttle) Delay() time.Duration { return time.Duration(th.delay.Load()) }

// Wait applies the current delay, if any. It inlines into its caller as
// one atomic load, the whole cost when pacing is off; pace is the slow
// path.
func (th *Throttle) Wait() {
	if d := th.delay.Load(); d != 0 {
		pace(d)
	}
}

// pace sleeps one commit's delay d, in nanoseconds.
func pace(d int64) {
	_ = fault.Inject(faultPaceWait) // latency-only site: errors have nowhere to go mid-commit
	// Re-clamp at the spend site: the ceiling holds even if a future
	// writer bypasses Set.
	if d > int64(MaxPaceDelay) {
		d = int64(MaxPaceDelay)
	}
	time.Sleep(time.Duration(d))
	obsPaceDelay.ObserveDuration(time.Duration(d))
}

// Controller turns the Step-3 debt trend into a pace delay. The law is
// MIMD (multiplicative increase, multiplicative decrease), chosen because
// debt growth is itself multiplicative in the commit-rate/replay-rate
// ratio:
//
//   - debt above target and not shrinking → delay = max(PaceStep, 2·delay),
//     clamped to PaceMaxDelay. Each doubling cuts the source commit rate
//     further; since the slave's replay rate is workload-independent, some
//     finite delay always drives commit rate below replay rate, so debt
//     must eventually fall — that is the convergence guarantee.
//   - debt above target but shrinking by at least 1/16 of its value per
//     tick → hold: the brake is already biting hard enough to drain the
//     backlog in a bounded number of ticks. A slower shrink still counts
//     as diverging — without the rate floor the controller parks at the
//     first delay with any drain at all and the tail takes minutes.
//   - debt at or below target → delay *= DefaultPaceDecay, snapping to 0 below
//     PaceStep, returning the tenant to full speed.
//
// Tick is called from the manager's Step-3 sampling loop, never
// concurrently; only the Throttle it feeds is shared.
type Controller struct {
	cfg      Config
	delay    time.Duration
	prevDebt int
	primed   bool
}

// NewController builds a controller for one migration from a validated
// config snapshot.
func NewController(cfg Config) *Controller {
	return &Controller{cfg: cfg}
}

// Tick feeds one debt sample and returns the delay to apply until the
// next sample. A controller with pacing disabled always returns 0.
func (c *Controller) Tick(debt int) time.Duration {
	if c.cfg.PaceMaxDelay == 0 {
		return 0
	}
	defer func() {
		c.prevDebt = debt
		c.primed = true
	}()
	switch {
	case debt <= c.cfg.PaceTargetDebt:
		// Converged (or never diverged): back off multiplicatively.
		c.delay = time.Duration(float64(c.delay) * DefaultPaceDecay)
		if c.delay < c.cfg.PaceStep {
			c.delay = 0
		}
	case c.primed && debt < c.prevDebt-c.prevDebt/16:
		// Above target and shrinking geometrically: hold the delay.
		// (For prevDebt < 16 the floor is 0 and any shrink holds.)
	default:
		// Diverging (or first sample above target): tighten.
		if c.delay == 0 {
			c.delay = c.cfg.PaceStep
		} else {
			c.delay *= 2
		}
		if c.delay > c.cfg.PaceMaxDelay {
			c.delay = c.cfg.PaceMaxDelay
		}
	}
	return c.delay
}

// Delay returns the controller's current output without feeding a sample.
func (c *Controller) Delay() time.Duration { return c.delay }
