package flow

import (
	"fmt"
	"time"
)

// Watchdog is the one judge that gives up a migration attempt: past the
// attempt's deadline, when the slave makes no replay progress for a full
// stall window, or when the tenant's retained syncset list outgrows the
// byte cap. Every verdict is judged against the config snapshot the
// attempt began with, and routes through the manager's rollback protocol.
//
// The manager drives it single-threaded from the Step-3 sampling loop:
// Observe with each progress sample, then Check.
type Watchdog struct {
	cfg         Config
	start       time.Time
	lastGain    time.Time
	lastApplied int
	bestDebt    int
	sslBytes    int64
	primed      bool
}

// NewWatchdog starts the clocks for one migration attempt.
func NewWatchdog(cfg Config, start time.Time) *Watchdog {
	return &Watchdog{cfg: cfg, start: start, lastGain: start}
}

// Observe feeds one progress sample: the primary slave's applied-syncset
// count and current debt, and the bytes the tenant's syncset list retains.
// Progress means the slave applied something new or debt reached a new
// low — either resets the stall clock. Debt merely holding steady does
// not: a wedged slave with a paced (or idle) source holds debt flat
// forever, and that is exactly the hang the stall detector exists to break.
func (w *Watchdog) Observe(applied, debt int, sslBytes int64, now time.Time) {
	w.sslBytes = sslBytes
	if !w.primed {
		w.primed = true
		w.bestDebt = debt
		w.lastApplied = applied
		w.lastGain = now
		return
	}
	if applied > w.lastApplied || debt < w.bestDebt {
		w.lastGain = now
	}
	if applied > w.lastApplied {
		w.lastApplied = applied
	}
	if debt < w.bestDebt {
		w.bestDebt = debt
	}
}

// Check returns ErrDeadline, ErrStalled or (wrapped) ErrSSLOverflow when a
// limit has been crossed, nil otherwise. Each verdict counts once: the
// manager aborts on the first non-nil one.
func (w *Watchdog) Check(now time.Time) error {
	if w.cfg.Deadline > 0 && now.Sub(w.start) >= w.cfg.Deadline {
		obsDeadlineAborts.Inc()
		return ErrDeadline
	}
	if w.cfg.StallWindow > 0 && w.primed && now.Sub(w.lastGain) >= w.cfg.StallWindow {
		obsStalls.Inc()
		return ErrStalled
	}
	if w.cfg.MaxSSLBytes > 0 && w.sslBytes > w.cfg.MaxSSLBytes {
		obsOverflows.Inc()
		return fmt.Errorf("flow: SSL byte cap breached, %d of %d bytes retained: %w",
			w.sslBytes, w.cfg.MaxSSLBytes, ErrSSLOverflow)
	}
	return nil
}
