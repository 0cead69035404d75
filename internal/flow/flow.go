// Package flow is the middleware's backpressure and admission-control
// layer: the defenses that keep a migration convergent — and the process
// alive — when the source commits syncsets faster than a slave can replay
// them (the paper's "heavy workload" regime, pushed past what Section 5
// measures). Cecchet et al. name admission control and overload behaviour
// as the canonical gap between replication-middleware papers and deployable
// systems; this package closes that gap for our reproduction.
//
// Four mechanisms, one Config:
//
//   - Bounded SSL: a byte cap on the capture buffer (internal/core's
//     syncset list), tracked per tenant. The watchdog judges it, so a
//     breach aborts the migration through the rollback protocol instead of
//     growing without limit.
//   - Adaptive source pacing: a feedback controller watches the Step-3
//     debt trend and injects a small, bounded delay into the migrating
//     tenant's source-side commits when debt diverges — dirty-rate
//     throttling, the DB analog of pre-copy VM migration — ramping back to
//     zero as the slave catches up, so convergence to the switch-over
//     threshold is guaranteed rather than hoped for.
//   - Migration watchdog: the one judge that gives up an attempt — its
//     deadline, a stall detector (no replay progress and no debt decrease
//     for a window) and the SSL byte cap, all read from the config the
//     attempt began with — through the rollback protocol instead of
//     hanging forever.
//   - Proxy admission control: bounded per-tenant in-flight sessions with
//     a wait queue and typed overload errors, so a connection burst
//     degrades gracefully instead of exhausting goroutines.
//
// The layer follows the repo's overhead contract (internal/invariant,
// internal/fault): with every knob at its zero value the per-commit pace
// check costs one inlined atomic load and the per-session admission check
// one config load, checked by TestDisabledOverhead/TestFlowDisabledOverhead
// at the repo root.
package flow

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// Knob constants: the calibrated defaults DefaultConfig applies and the
// hard ceilings Validate enforces.
const (
	// DefaultMaxSSLBytes bounds the capture buffer's memory footprint.
	DefaultMaxSSLBytes = 256 << 20
	// CatchupDebt is the syncset debt a slave may run behind by while it
	// turns the SSL over: Step 4 (suspend + final drain + switch) begins
	// once the debt has stayed at or below it from some instant until every
	// syncset linked at that instant has been applied (internal/core's
	// catchup rule). Debt counts syncsets that are replayable now but not
	// yet applied; syncsets the LSIR holds back behind active master
	// transactions are an irreducible floor and are excluded. It bounds
	// what Step 4's suspension has left to drain; it is not a time.
	CatchupDebt = 64
	// DefaultPaceTargetDebt is the debt the controller steers toward; it
	// sits below CatchupDebt so paced migrations reach switch-over.
	DefaultPaceTargetDebt = 32
	// DefaultPaceStep seeds the controller's first nonzero delay.
	DefaultPaceStep = time.Millisecond
	// DefaultPaceMaxDelay bounds the injected per-commit delay.
	DefaultPaceMaxDelay = 50 * time.Millisecond
	// MaxPaceDelay is the hard ceiling on any configured or computed pace
	// delay: pacing must stay a "small, bounded" commit tax, never a
	// de-facto service suspension.
	MaxPaceDelay = 250 * time.Millisecond
	// DefaultPaceDecay halves the delay each tick once debt is back at
	// target (multiplicative decrease).
	DefaultPaceDecay = 0.5
	// DefaultDeadline gives up a migration that has not switched over this
	// long after it began: the paper's N/A (Sec 5.3.2).
	DefaultDeadline = 2 * time.Minute
	// DefaultStallWindow aborts a migration that makes no replay progress
	// for this long.
	DefaultStallWindow = 30 * time.Second
	// DefaultMaxTransferBytes caps the resident bytes of an in-flight
	// Step-1 snapshot transfer (chunks dumped but not yet applied on every
	// slave): the pipelined path's analog of the SSL byte cap.
	DefaultMaxTransferBytes = 64 << 20
	// DefaultAdmitTimeout bounds how long a queued session waits for an
	// admission slot before it is shed.
	DefaultAdmitTimeout = 2 * time.Second
)

// Config is the single home of every backpressure knob, validated at
// startup (core.New) and tunable at runtime through the admin FLOW command.
// The zero value disables everything — seed behaviour is unchanged and the
// hot paths cost one atomic load.
type Config struct {
	// MaxSSLBytes caps the SSL's accounted memory footprint (SQL text plus
	// per-syncset and per-entry overhead), the capture buffer's one cap:
	// the overheads make it bound the retained syncsets and operations
	// too. 0 = unlimited.
	MaxSSLBytes int64

	// PaceTargetDebt is the Step-3 debt the pacing controller steers the
	// migrating tenant toward. Only meaningful when PaceMaxDelay > 0, and
	// then at most CatchupDebt: the controller lets the brake off at this
	// debt, so a higher target would hold a migration at a debt the
	// catch-up rule never accepts.
	PaceTargetDebt int
	// PaceStep is the controller's smallest nonzero delay (the ramp seed).
	PaceStep time.Duration
	// PaceMaxDelay bounds the per-commit delay pacing may inject on the
	// migrating tenant's source sessions; 0 disables pacing. Capped at
	// MaxPaceDelay.
	PaceMaxDelay time.Duration

	// MaxTransferBytes caps the resident memory of a pipelined Step-1
	// snapshot transfer: the dump stage blocks once this many chunk bytes
	// are in flight (transferred but not yet applied by every slave).
	// 0 = unlimited.
	MaxTransferBytes int64

	// Deadline bounds a whole migration attempt, counted from its start:
	// past it the watchdog aborts through the rollback protocol, the
	// paper's "the slave could not catch up with the master" (Sec 5.3.2's
	// N/A). It is the one bound on a migration's length. 0 = no deadline.
	Deadline time.Duration
	// StallWindow aborts a migration whose slave made no replay progress
	// (no applied advance, no debt decrease) for this long. 0 = disabled.
	StallWindow time.Duration

	// MaxSessions caps per-tenant in-flight customer sessions.
	// 0 = unlimited.
	MaxSessions int
	// AdmitQueue is how many sessions may wait for a slot beyond the cap
	// before new arrivals are shed with a typed overload error.
	AdmitQueue int
	// AdmitTimeout bounds a queued session's wait before it is shed.
	// 0 with MaxSessions > 0 falls back to DefaultAdmitTimeout.
	AdmitTimeout time.Duration
}

// DefaultConfig returns the calibrated production configuration: bounded
// SSL, pacing on, a two-minute deadline, a generous stall window, and a
// high session cap. The daemon (cmd/madeusd) and the benchmark ship with
// it; tests and embedders opt in.
func DefaultConfig() Config {
	return Config{
		MaxSSLBytes:      DefaultMaxSSLBytes,
		PaceTargetDebt:   DefaultPaceTargetDebt,
		PaceStep:         DefaultPaceStep,
		PaceMaxDelay:     DefaultPaceMaxDelay,
		MaxTransferBytes: DefaultMaxTransferBytes,
		Deadline:         DefaultDeadline,
		StallWindow:      DefaultStallWindow,
		MaxSessions:      1024,
		AdmitQueue:       256,
		AdmitTimeout:     DefaultAdmitTimeout,
	}
}

// Validate range-checks every knob; a new Config field needs its check
// here.
func (c Config) Validate() error {
	if c.MaxSSLBytes < 0 {
		return fmt.Errorf("flow: MaxSSLBytes %d < 0", c.MaxSSLBytes)
	}
	if c.PaceTargetDebt < 0 {
		return fmt.Errorf("flow: PaceTargetDebt %d < 0", c.PaceTargetDebt)
	}
	if c.PaceStep < 0 {
		return fmt.Errorf("flow: PaceStep %v < 0", c.PaceStep)
	}
	if c.PaceMaxDelay < 0 || c.PaceMaxDelay > MaxPaceDelay {
		return fmt.Errorf("flow: PaceMaxDelay %v outside [0, %v]", c.PaceMaxDelay, time.Duration(MaxPaceDelay))
	}
	if c.PaceMaxDelay > 0 && c.PaceTargetDebt > CatchupDebt {
		return fmt.Errorf("flow: PaceTargetDebt %d above the catch-up debt %d with pacing enabled", c.PaceTargetDebt, CatchupDebt)
	}
	if c.PaceMaxDelay > 0 && c.PaceStep == 0 {
		return fmt.Errorf("flow: pacing enabled (PaceMaxDelay %v) with PaceStep 0", c.PaceMaxDelay)
	}
	if c.PaceStep > MaxPaceDelay {
		return fmt.Errorf("flow: PaceStep %v exceeds the %v ceiling", c.PaceStep, time.Duration(MaxPaceDelay))
	}
	if c.MaxTransferBytes < 0 {
		return fmt.Errorf("flow: MaxTransferBytes %d < 0", c.MaxTransferBytes)
	}
	if c.Deadline < 0 {
		return fmt.Errorf("flow: Deadline %v < 0", c.Deadline)
	}
	if c.StallWindow < 0 {
		return fmt.Errorf("flow: StallWindow %v < 0", c.StallWindow)
	}
	if c.MaxSessions < 0 {
		return fmt.Errorf("flow: MaxSessions %d < 0", c.MaxSessions)
	}
	if c.AdmitQueue < 0 {
		return fmt.Errorf("flow: AdmitQueue %d < 0", c.AdmitQueue)
	}
	if c.AdmitQueue > 0 && c.MaxSessions == 0 {
		return fmt.Errorf("flow: AdmitQueue %d without a MaxSessions cap", c.AdmitQueue)
	}
	if c.AdmitTimeout < 0 {
		return fmt.Errorf("flow: AdmitTimeout %v < 0", c.AdmitTimeout)
	}
	return nil
}

// Governor holds the live Config for one middleware process. Reads are one
// atomic pointer load (hot paths snapshot it once per decision); updates
// re-validate and swap.
type Governor struct {
	cfg atomic.Pointer[Config]
}

// NewGovernor validates cfg and wraps it.
func NewGovernor(cfg Config) (*Governor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Governor{}
	g.cfg.Store(&cfg)
	return g, nil
}

// Config snapshots the current configuration.
func (g *Governor) Config() Config { return *g.cfg.Load() }

// Update validates and installs a whole new configuration.
func (g *Governor) Update(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	g.cfg.Store(&cfg)
	return nil
}

// knobs maps the admin-facing snake_case knob names onto Config fields.
// Order here is the FLOW listing order.
var knobNames = []string{
	"max_ssl_bytes", "max_transfer_bytes",
	"pace_target_debt", "pace_step", "pace_max_delay",
	"deadline", "stall_window",
	"max_sessions", "admit_queue", "admit_timeout",
}

// KnobNames lists the runtime-tunable knob names in display order.
func KnobNames() []string { return append([]string(nil), knobNames...) }

// Knob renders the named knob's current value ("" for unknown names).
func (c Config) Knob(name string) string {
	switch name {
	case "max_ssl_bytes":
		return strconv.FormatInt(c.MaxSSLBytes, 10)
	case "max_transfer_bytes":
		return strconv.FormatInt(c.MaxTransferBytes, 10)
	case "pace_target_debt":
		return strconv.Itoa(c.PaceTargetDebt)
	case "pace_step":
		return c.PaceStep.String()
	case "pace_max_delay":
		return c.PaceMaxDelay.String()
	case "deadline":
		return c.Deadline.String()
	case "stall_window":
		return c.StallWindow.String()
	case "max_sessions":
		return strconv.Itoa(c.MaxSessions)
	case "admit_queue":
		return strconv.Itoa(c.AdmitQueue)
	case "admit_timeout":
		return c.AdmitTimeout.String()
	}
	return ""
}

// Set parses value into the named knob, validates the resulting
// configuration, and installs it atomically. This is the admin FLOW SET /
// `madeusctl flow set` backend.
func (g *Governor) Set(name, value string) error {
	cfg := g.Config()
	var err error
	switch name {
	case "max_ssl_bytes":
		cfg.MaxSSLBytes, err = strconv.ParseInt(value, 10, 64)
	case "max_transfer_bytes":
		cfg.MaxTransferBytes, err = strconv.ParseInt(value, 10, 64)
	case "pace_target_debt":
		cfg.PaceTargetDebt, err = strconv.Atoi(value)
	case "pace_step":
		cfg.PaceStep, err = time.ParseDuration(value)
	case "pace_max_delay":
		cfg.PaceMaxDelay, err = time.ParseDuration(value)
	case "deadline":
		cfg.Deadline, err = time.ParseDuration(value)
	case "stall_window":
		cfg.StallWindow, err = time.ParseDuration(value)
	case "max_sessions":
		cfg.MaxSessions, err = strconv.Atoi(value)
	case "admit_queue":
		cfg.AdmitQueue, err = strconv.Atoi(value)
	case "admit_timeout":
		cfg.AdmitTimeout, err = time.ParseDuration(value)
	default:
		return fmt.Errorf("flow: unknown knob %q", name)
	}
	if err != nil {
		return fmt.Errorf("flow: bad value %q for %s: %v", value, name, err)
	}
	return g.Update(cfg)
}

// Typed overload and abort errors. They are part of the rollback surface:
// Report.RollbackReason carries their text, and clients shed by admission
// control see OverloadError's message as a server error instead of a hang.
var (
	// ErrOverloaded is the sentinel every admission shed unwraps to.
	ErrOverloaded = errors.New("flow: overloaded")
	// ErrStalled aborts a migration whose slave made no replay progress
	// for a whole stall window.
	ErrStalled = errors.New("flow: migration stalled: no propagation progress within the stall window")
	// ErrDeadline aborts a migration that outlived its deadline.
	ErrDeadline = errors.New("flow: migration deadline exceeded")
	// ErrSSLOverflow aborts a migration whose capture buffer breached its
	// configured byte cap. With pacing on this should never fire; with pacing
	// off it is the bound that keeps memory finite.
	ErrSSLOverflow = errors.New("flow: syncset list exceeded its configured cap")
)

// OverloadError is the typed error a shed session receives.
type OverloadError struct {
	Tenant string
	Reason string // ReasonQueueFull or ReasonAdmitTimeout
}

// Shed reasons.
const (
	ReasonQueueFull    = "admission queue full"
	ReasonAdmitTimeout = "admission wait timed out"
)

func (e *OverloadError) Error() string {
	return "flow: tenant " + e.Tenant + " overloaded: " + e.Reason
}

// Unwrap makes errors.Is(err, ErrOverloaded) hold.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }
