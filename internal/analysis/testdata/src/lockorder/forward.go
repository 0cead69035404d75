package lockorder

import "sync"

// The cases in this file reproduce the deadlocks lockorder caught in the
// tree. Each puts the callee that takes the second lock after its caller,
// so a call graph that walked a body before registering the functions
// declared below it would resolve none of these calls.

// registry is core.Middleware's shape: lookups take the read side of mu.
type registry struct {
	mu      sync.RWMutex //madeusvet:lockrank lo-registry 5
	tenants map[string]int
	nodes   map[string]backend
}

type backend interface{ Connect(db string) error }

// addTenant is AddTenant as it was: it held the write side of mu across the
// probe dial, and a backend's Connect may look a tenant up.
func (r *registry) addTenant(db, node string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nodes[node].Connect(db) // want
}

// lookingNode is examples/multislave's dying node: its Connect reads the
// registry it is registered in.
type lookingNode struct{ r *registry }

func (n *lookingNode) Connect(db string) error {
	n.r.tenant(db)
	return nil
}

func (r *registry) tenant(db string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tenants[db]
}

// table is mvcc.Table's index sweep as it was: the sweep held an index's
// lock and took row locks under it, while the backfill of a new index
// files each row under the row's lock. Together they close a cycle.
type table struct{ rows []*row }

type row struct {
	mu   sync.Mutex //madeusvet:lockrank lo-row 42
	vals []int
}

type index struct {
	mu      sync.RWMutex //madeusvet:lockrank lo-index 46
	entries map[int]map[int]bool
}

func (tb *table) sweep(ix *index) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for val, set := range ix.entries {
		for k := range set {
			if !tb.holds(k, val) { // want
				delete(set, k)
			}
		}
	}
}

func (tb *table) backfill(ix *index) {
	tb.each(func(k int, r *row) {
		r.mu.Lock()
		for _, v := range r.vals {
			ix.add(v, k)
		}
		r.mu.Unlock()
	})
}

// sweepFixed is the sweep as it is now: it collects the entries, then takes
// each row's lock first and the index's second.
func (tb *table) sweepFixed(ix *index) {
	for val, keys := range ix.snapshot() {
		for _, k := range keys {
			r := tb.rows[k]
			r.mu.Lock()
			if !r.has(val) {
				ix.remove(val, k)
			}
			r.mu.Unlock()
		}
	}
}

func (tb *table) each(fn func(int, *row)) {
	for k, r := range tb.rows {
		fn(k, r)
	}
}

func (tb *table) holds(k, val int) bool {
	r := tb.rows[k]
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.has(val)
}

func (r *row) has(val int) bool {
	for _, v := range r.vals {
		if v == val {
			return true
		}
	}
	return false
}

func (ix *index) add(val, k int) {
	ix.mu.Lock()
	ix.entries[val][k] = true
	ix.mu.Unlock()
}

func (ix *index) remove(val, k int) {
	ix.mu.Lock()
	delete(ix.entries[val], k)
	ix.mu.Unlock()
}

func (ix *index) snapshot() map[int][]int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make(map[int][]int)
	for val, set := range ix.entries {
		for k := range set {
			out[val] = append(out[val], k)
		}
	}
	return out
}

// directory is mvcc.Table's chain directory: many stripes of one mutex, and
// a spine lock taken under a stripe's when a new block is filed. Ranked
// below the stripe, the spine lock is an inversion.
type directory struct {
	stripes []stripe
	spineMu sync.Mutex //madeusvet:lockrank lo-spine 39
}

type stripe struct {
	mu sync.Mutex //madeusvet:lockrank lo-stripe 40 striped
}

func (d *directory) chainIn(s *stripe) {
	s.mu.Lock()
	d.spineInsert() // want
	s.mu.Unlock()
}

// lockAll holds every stripe at once, in index order: taking a second
// instance of a striped field is not a self-deadlock.
func (d *directory) lockAll() {
	for i := 0; i < len(d.stripes); i++ {
		d.stripes[i].mu.Lock()
	}
}

func (d *directory) spineInsert() {
	d.spineMu.Lock()
	d.spineMu.Unlock()
}
