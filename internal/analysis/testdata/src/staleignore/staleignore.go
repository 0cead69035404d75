// Package staleignore exercises stale-suppression reporting. The directive
// in liveDirective suppresses a real lockorder finding and must stay
// silent; the one in deadDirective guards nothing and must itself be
// reported. TestStaleIgnore pins the exact positions (want markers cannot
// share a line with a //madeusvet:ignore directive, so this fixture is
// asserted by a dedicated test instead of the golden harness).
package staleignore

import "sync"

type pair struct {
	low  sync.Mutex //madeusvet:lockrank si-low 10
	high sync.Mutex //madeusvet:lockrank si-high 20
}

// liveDirective takes the locks out of rank order on purpose; the directive
// consumes the lockorder finding and is therefore not stale.
func liveDirective(p *pair) {
	p.high.Lock()
	defer p.high.Unlock()
	//madeusvet:ignore lockorder fixture: the inversion below is the probe
	p.low.Lock()
	p.low.Unlock()
}

// deadDirective takes the locks in rank order: the directive is dead
// weight and staleignore reports it.
func deadDirective(p *pair) {
	p.low.Lock()
	defer p.low.Unlock()
	//madeusvet:ignore lockorder fixture: this suppression outlived its finding
	p.high.Lock()
	p.high.Unlock()
}

// notYetEligible names a rule outside the enabled set when madeusvet runs
// with -rules; staleness is only decided when every named rule actually
// ran. Under the full set this one names a rule that does not exist, so it
// is never eligible and never reported.
func notYetEligible(p *pair) {
	//madeusvet:ignore futurerule reserved for a rule this fixture does not ship
	p.low.Lock()
	p.low.Unlock()
}
