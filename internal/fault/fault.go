// Package fault is a deterministic failpoint registry for chaos testing
// the migration pipeline. Code under test declares named sites on its hot
// paths:
//
//	if err := fault.Inject("core.step3.exec"); err != nil {
//	    return err
//	}
//
// and tests arm a site with a Policy describing how it should misbehave:
// fail once, fail N times, delay, hang until released, drop the
// connection, or fire probabilistically from a seeded PRNG (for soak
// runs). Everything is stdlib-only and deterministic: with a fixed seed
// and a fixed interleaving, the same faults fire at the same hits.
//
// The registry follows the repo's tag-gating contract (see
// internal/invariant): the real implementation builds only under
// `-tags faultinject`. In a default build every exported function is a
// no-op stub and an Inject site compiles to nothing. In a faultinject
// build an unarmed site costs one inlined atomic load (the `armed` flag)
// in front of the outlined slow path. TestDisabledOverhead at the repo
// root checks both on the compiled code.
//
// Site names are dot-separated constants owned by the package declaring
// them (wire.dial, wal.fsync, core.step1.dump, ...). They must be
// precomputed constants: building the name at the call site would be paid
// in production builds, where Inject is a no-op.
package fault

import (
	"errors"
	"time"
)

// Policy describes how an armed site misbehaves. The zero value plus
// Times==0 means "fail every hit with ErrInjected"; fields compose, e.g.
// {Delay: d, Err: e} sleeps then fails, {Hang: true} blocks until
// released then proceeds.
type Policy struct {
	// Err is the error returned when the policy fires. When nil and
	// neither Drop, Delay, nor Hang is set, ErrInjected is returned.
	Err error

	// Times caps how often the policy fires; 0 means every hit.
	// After the cap the site stays registered but inert (its hit
	// counter keeps advancing, useful for "fired then recovered"
	// assertions).
	Times int

	// Skip lets the first N hits pass untouched before the policy
	// starts firing, to target e.g. the third fsync.
	Skip int

	// Delay is slept before the policy's error (if any) is returned.
	// With no error it models a slow peer rather than a dead one.
	Delay time.Duration

	// Hang blocks the hitting goroutine until Release(site), Disable(site),
	// or Reset() — a partition that heals when the test decides.
	// After release the policy's error (usually nil) is returned.
	Hang bool

	// Drop makes the policy return a *DropError, which call sites that
	// own a connection translate into closing it — modelling a peer
	// that vanishes mid-message rather than one that answers with an
	// error.
	Drop bool

	// P, when in (0,1), fires the policy on each hit with probability P
	// drawn from the registry's seeded PRNG. 0 (and ≥1) mean "always".
	P float64
}

// ErrInjected is the default error produced by a firing site. Every
// injected error — including connection drops — unwraps to it, so
// errors.Is(err, ErrInjected) identifies synthetic failures.
var ErrInjected = errors.New("fault: injected error")

// DropError is the typed error for Policy.Drop: the site should behave as
// if its connection died. It unwraps to ErrInjected.
type DropError struct {
	Site string
}

func (e *DropError) Error() string { return "fault: injected connection drop at " + e.Site }

func (e *DropError) Unwrap() error { return ErrInjected }

// IsInjected reports whether err originated from a firing failpoint.
func IsInjected(err error) bool { return errors.Is(err, ErrInjected) }

// IsConnDrop reports whether err asks the call site to drop its
// connection (Policy.Drop).
func IsConnDrop(err error) bool {
	var de *DropError
	return errors.As(err, &de)
}
