//go:build faultinject

package fault

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"madeus/internal/obs"
)

// Enabled reports that failpoints are compiled in: sites consult the
// registry and armed policies fire.
const Enabled = true

// obsFaultHits counts policy firings; it only exists (and registers) in
// faultinject builds, so production metric listings never mention it.
var obsFaultHits = obs.NewCounter("fault.hits", "failpoints fired (faultinject builds only)")

var (
	// armed is the fast path: one atomic load decides whether Inject
	// does any work at all. True iff at least one site is registered.
	armed atomic.Bool

	mu    sync.Mutex
	sites = make(map[string]*siteState)
	rng   = rand.New(rand.NewSource(1))

	// fired counts policy firings across all sites (matches the obs
	// counter but readable without obs snapshots).
	fired atomic.Uint64
)

type siteState struct {
	policy   Policy
	hits     uint64 // Inject calls that reached this armed site
	fired    uint64 // hits on which the policy actually triggered
	skipped  int
	release  chan struct{} // closed to free goroutines parked by Hang
	released bool
}

// Inject consults the registry for site. It returns nil when the site is
// unarmed; otherwise it applies the site's Policy: possibly skipping,
// counting down Times, rolling the seeded PRNG for P, sleeping Delay,
// parking on Hang, and finally returning the policy's error (ErrInjected
// by default, a *DropError for Drop, nil for pure delay/hang).
//
// Inject is the inlined fast path, one atomic load; inject is the slow
// path, reached only while some site is armed.
func Inject(site string) error {
	if !armed.Load() {
		return nil
	}
	return inject(site)
}

func inject(site string) error {
	mu.Lock()
	s := sites[site]
	if s == nil {
		mu.Unlock()
		return nil
	}
	s.hits++
	p := s.policy
	if s.skipped < p.Skip {
		s.skipped++
		mu.Unlock()
		return nil
	}
	if p.Times > 0 && s.fired >= uint64(p.Times) {
		mu.Unlock()
		return nil
	}
	if p.P > 0 && p.P < 1 && rng.Float64() >= p.P {
		mu.Unlock()
		return nil
	}
	s.fired++
	release := s.release
	mu.Unlock()

	fired.Add(1)
	obsFaultHits.Add(1)
	obs.Trace.Emit("", "fault.fired", obs.F("site", site))

	if p.Delay > 0 {
		time.Sleep(p.Delay)
	}
	if p.Hang {
		<-release
	}
	if p.Drop {
		return &DropError{Site: site}
	}
	if p.Err != nil {
		return p.Err
	}
	if p.Delay > 0 || p.Hang {
		return nil
	}
	return ErrInjected
}

// Enable arms site with policy p, replacing any previous policy and
// resetting the site's counters. Goroutines parked by a previous Hang
// policy at this site are released.
func Enable(site string, p Policy) {
	mu.Lock()
	defer mu.Unlock()
	if old := sites[site]; old != nil {
		old.releaseLocked()
	}
	sites[site] = &siteState{policy: p, release: make(chan struct{})}
	armed.Store(true)
}

// Disable disarms site, releasing any goroutines its Hang policy parked.
// Unknown sites are ignored.
func Disable(site string) {
	mu.Lock()
	defer mu.Unlock()
	if s := sites[site]; s != nil {
		s.releaseLocked()
		delete(sites, site)
	}
	if len(sites) == 0 {
		armed.Store(false)
	}
}

// Reset disarms every site and releases all parked goroutines; tests call
// it in cleanup so one scenario's faults never leak into the next.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for _, s := range sites {
		s.releaseLocked()
	}
	sites = make(map[string]*siteState)
	armed.Store(false)
}

// Release frees goroutines parked by site's Hang policy without disarming
// it (the partition heals; the site keeps counting hits).
func Release(site string) {
	mu.Lock()
	defer mu.Unlock()
	if s := sites[site]; s != nil {
		s.releaseLocked()
	}
}

func (s *siteState) releaseLocked() {
	if !s.released {
		s.released = true
		close(s.release)
	}
}

// Seed re-seeds the PRNG behind probabilistic policies, making soak runs
// reproducible.
func Seed(seed int64) {
	mu.Lock()
	defer mu.Unlock()
	rng = rand.New(rand.NewSource(seed))
}

// SiteHits reports how many Inject calls reached site while it was armed
// (whether or not the policy fired).
func SiteHits(site string) uint64 {
	mu.Lock()
	defer mu.Unlock()
	if s := sites[site]; s != nil {
		return s.hits
	}
	return 0
}

// SiteFired reports how many times site's policy actually triggered.
func SiteFired(site string) uint64 {
	mu.Lock()
	defer mu.Unlock()
	if s := sites[site]; s != nil {
		return s.fired
	}
	return 0
}

// Hits reports total policy firings across all sites since process start.
func Hits() uint64 { return fired.Load() }

// List reports the armed site names, sorted.
func List() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(sites))
	for name := range sites {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
