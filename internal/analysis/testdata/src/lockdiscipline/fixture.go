// Package lockdiscipline exercises the lockdiscipline analyzer: each line
// marked `// want` must produce exactly one finding; unmarked lines none.
package lockdiscipline

import (
	"sync"
	"time"

	"fixture/internal/wire"
)

type guarded struct {
	mu   sync.Mutex
	cond *sync.Cond
	ch   chan int
	n    int
	c    *wire.Client
}

// sleepUnderLock blocks while holding the mutex — both the sleep and the
// channel send must be flagged.
func (g *guarded) sleepUnderLock() {
	g.mu.Lock()
	time.Sleep(time.Millisecond) // want
	g.ch <- g.n                  // want
	g.mu.Unlock()
}

// receiveUnderLock blocks on a channel receive with the lock held.
func (g *guarded) receiveUnderLock() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n = <-g.ch // want
}

// selectUnderLock blocks on a default-less select with the lock held.
func (g *guarded) selectUnderLock() {
	g.mu.Lock()
	select { // want
	case v := <-g.ch:
		g.n = v
	}
	g.mu.Unlock()
}

// roundTripsUnderLock calls every wire client round trip with the lock
// held; each one is a network wait and must be flagged.
func (g *guarded) roundTripsUnderLock() {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, _ = g.c.Exec("SELECT 1")                 // want
	_, _ = g.c.ExecReply("SELECT 1")            // want
	_, _ = g.c.ExecStream("DUMP STREAM 1", nil) // want
	_, _ = g.c.ExecRetry("SELECT 1", true)      // want
}

// leakyLock never releases — the release-obligation check must fire.
func (g *guarded) leakyLock() {
	g.mu.Lock() // want
	g.n++
}

// cleanCritical is the sanctioned shape: short critical section, blocking
// work outside it. No findings.
func (g *guarded) cleanCritical() {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
	time.Sleep(time.Millisecond)
	g.ch <- g.n
}

// condWait is the sync.Cond pattern — Wait releases the mutex, so it is
// exempt even though the lock is formally held.
func (g *guarded) condWait() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.n == 0 {
		g.cond.Wait()
	}
}

// branchRelease unlocks on one branch before blocking; the held-set walk
// must honor the release.
func (g *guarded) branchRelease(fast bool) {
	g.mu.Lock()
	if fast {
		g.mu.Unlock()
		time.Sleep(time.Millisecond)
		return
	}
	g.n++
	g.mu.Unlock()
}
