// Package lockorder exercises the lockorder analyzer: each line marked
// `// want` must produce exactly one finding; unmarked lines none. The
// seeded cycle (chainFirst/chainSecond) must be diagnosed with the full
// acquisition cycle in the inversion message, and the ignore cases pin a
// directive's scope: its own line and the next, for the rules it names.
package lockorder

import "sync"

type shared struct {
	low  sync.Mutex //madeusvet:lockrank lo-low 10
	high sync.Mutex //madeusvet:lockrank lo-high 20

	first  sync.Mutex //madeusvet:lockrank lo-first 30
	second sync.Mutex //madeusvet:lockrank lo-second 40

	self sync.Mutex //madeusvet:lockrank lo-self 50

	rw sync.RWMutex //madeusvet:lockrank lo-rw 60
}

// directInversion acquires a lower rank while holding a higher one — the
// plain single-function violation. Together with increasingOK (the
// opposite, sanctioned order) it also forms a low↔high acquisition cycle,
// so the inversion message carries the cycle too.
func directInversion(s *shared) {
	s.high.Lock()
	defer s.high.Unlock()
	s.low.Lock() // want
	s.low.Unlock()
}

// increasingOK is the sanctioned order: strictly increasing ranks.
func increasingOK(s *shared) {
	s.low.Lock()
	defer s.low.Unlock()
	s.high.Lock()
	s.high.Unlock()
}

// chainFirst establishes the first→second edge in rank order (no finding).
func chainFirst(s *shared) {
	s.first.Lock()
	defer s.first.Unlock()
	s.second.Lock()
	s.second.Unlock()
}

func lockFirst(s *shared) {
	s.first.Lock()
	s.first.Unlock()
}

// chainSecond closes the cycle through a call: holding second, the callee
// acquires first. The inversion is reported at the call site and carries
// the full first→second→first acquisition cycle.
func chainSecond(s *shared) {
	s.second.Lock()
	defer s.second.Unlock()
	lockFirst(s) // want
}

func lockSelf(s *shared) {
	s.self.Lock()
	s.self.Unlock()
}

// reacquires self-deadlocks through a call: the callee takes a mutex the
// caller already holds.
func reacquires(s *shared) {
	s.self.Lock()
	defer s.self.Unlock()
	lockSelf(s) // want
}

func readMore(s *shared) {
	s.rw.RLock()
	s.rw.RUnlock()
}

// sharedReaders re-enters the read side of an RWMutex through a call —
// shared-mode re-entry is exempt from the self-deadlock rule.
func sharedReaders(s *shared) {
	s.rw.RLock()
	defer s.rw.RUnlock()
	readMore(s)
}

// suppressedInversion carries the same violation as directInversion with
// suppressions on the line above and on the same line; both stay silent.
func suppressedInversion(s *shared) {
	s.high.Lock()
	defer s.high.Unlock()
	//madeusvet:ignore lockorder seeded inversion kept to prove the suppression path
	s.low.Lock()
	s.low.Unlock()
	s.low.Lock() //madeusvet:ignore lockorder a trailing directive covers its own line
	s.low.Unlock()
}

// outOfScope carries directives that do not cover the inversion: one two
// lines above it, one naming another rule.
func outOfScope(s *shared) {
	s.high.Lock()
	defer s.high.Unlock()
	//madeusvet:ignore lockorder two lines above the finding: out of scope

	s.low.Lock() // want
	s.low.Unlock()
	//madeusvet:ignore otherrule names a rule other than lockorder
	s.low.Lock() // want
	s.low.Unlock()
}
