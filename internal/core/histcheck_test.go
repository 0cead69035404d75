package core

// The client-history oracle: seeded sessions drive the real Middleware
// through one migration, record what each client observed, and the checker
// holds that history to the migration contract (Theorems 1-2 plus ours):
//
//	(a) the history is snapshot isolation: every read names a committed
//	    version, and the dependency graph of the committed transactions
//	    has no cycle without two adjacent rw edges (Adya's G-SI);
//	(b) every acknowledged commit is in the final state of the node that
//	    owns the tenant, in its place in its key's order;
//	(c) the tenant ends on exactly one node;
//	(d) no client saw an error that SI does not itself make.
//
// Every write stores a value unique to its transaction (Elle's "unique
// values", Kingsbury & Alvaro, VLDB 2020): the tenant is kv(k, v, n), and
// a write is "UPDATE kv SET v = <txn id>, n = n + 1 WHERE k = K". So a
// read of (v, n) names the write it saw and that version's place in the
// key's order.

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"madeus/internal/cluster"
	"madeus/internal/engine"
	"madeus/internal/flow"
	"madeus/internal/testutil"
	"madeus/internal/wal"
	"madeus/internal/wire"
)

// hop is one operation a client saw: a read of the version (v, n) of key
// k, or a write of k, whose n is its read-back inside the transaction or,
// for an autocommit write, -1 until a read or the final state names it.
type hop struct {
	k     int
	write bool
	v, n  int64
}

// htxn is one transaction as its client saw it. An autocommit statement
// is a transaction of one hop. id is the v its writes store; 0 is the
// initial load.
type htxn struct {
	id        int64
	ops       []hop
	committed bool // acknowledged: COMMIT answered COMMIT, or the autocommit statement succeeded
	post      bool // began after Migrate returned
}

// history is every transaction and every error the clients saw.
type history struct {
	txns []*htxn
	errs []string
}

// version names one write of one key.
type version struct {
	k int
	v int64
}

// versions indexes a history: the committed and aborted writes of each
// key and what is known of each version's place in its key's order.
type versions struct {
	committed map[version]*htxn
	aborted   map[version]bool
	n         map[version]int64
	bad       []string // reads that name no committed version: check (a)
}

// indexHistory learns each version's n from its writer's read-back, from
// every read that names it and from the final state, and records every
// read that contradicts what it learned.
func indexHistory(h history, final map[int]hop) *versions {
	x := &versions{committed: map[version]*htxn{}, aborted: map[version]bool{}, n: map[version]int64{}}
	for _, tx := range h.txns {
		for _, op := range tx.ops {
			if !op.write {
				continue
			}
			ver := version{op.k, tx.id}
			if !tx.committed {
				x.aborted[ver] = true
				continue
			}
			x.committed[ver] = tx
			if op.n >= 0 {
				if op.v != tx.id {
					x.bad = append(x.bad, fmt.Sprintf("txn %d: read back its write of key %d as v=%d", tx.id, op.k, op.v))
				}
				x.n[ver] = op.n
			}
		}
	}
	learn := func(who string, op hop) {
		ver := version{op.k, op.v}
		switch {
		case op.v == 0:
			if op.n != 0 {
				x.bad = append(x.bad, fmt.Sprintf("%s: read key %d's initial version at n=%d", who, op.k, op.n))
			}
			return
		case x.aborted[ver]:
			x.bad = append(x.bad, fmt.Sprintf("%s: read key %d's write by aborted txn %d", who, op.k, op.v))
			return
		case x.committed[ver] == nil:
			x.bad = append(x.bad, fmt.Sprintf("%s: read key %d as v=%d, which no acknowledged commit wrote", who, op.k, op.v))
			return
		}
		if n, ok := x.n[ver]; !ok {
			x.n[ver] = op.n
		} else if n != op.n {
			x.bad = append(x.bad, fmt.Sprintf("%s: read key %d's write by txn %d at n=%d, written at n=%d", who, op.k, op.v, op.n, n))
		}
	}
	for _, tx := range h.txns {
		if !tx.committed {
			continue
		}
		for _, op := range tx.ops {
			if !op.write {
				learn(fmt.Sprintf("txn %d", tx.id), op)
			}
		}
	}
	for k, f := range final {
		if ver := (version{k, f.v}); f.v != 0 && x.committed[ver] != nil {
			if _, ok := x.n[ver]; !ok {
				x.n[ver] = f.n
			}
		}
	}
	return x
}

// order returns key k's committed versions whose place is known, by n,
// with the initial version first.
func (x *versions) order(k int) []hop {
	out := []hop{{k: k}}
	for ver, n := range x.n {
		if ver.k == k && x.committed[ver] != nil {
			out = append(out, hop{k: k, v: ver.v, n: n})
		}
	}
	slices.SortFunc(out, func(a, b hop) int { return int(a.n - b.n) })
	return out
}

// checkSI is check (a). Over the committed transactions it builds the
// dependency graph the versions give: ww from a version's writer to the
// next known version's, wr from a writer to each reader, rw from a reader
// to the writer of the next known version. Skipping a version whose place
// is unknown keeps every edge sound (commit-before-start for ww and wr,
// start-before-commit for rw). Under SI every cycle has two adjacent rw
// edges, so the graph is walked as two layers, "last edge rw" and not, in
// which an rw edge may only leave the second; any cycle there is a G-SI
// violation.
func checkSI(h history, x *versions, keys []int) []string {
	bad := slices.Clone(x.bad)
	node := map[int64]int{0: 0}
	ids := []int64{0}
	for _, tx := range h.txns {
		if tx.committed {
			node[tx.id] = len(ids)
			ids = append(ids, tx.id)
		}
	}
	type edge struct {
		to int
		rw bool
	}
	adj := make([][]edge, len(ids))
	add := func(from, to int64, rw bool) {
		if from != to {
			adj[node[from]] = append(adj[node[from]], edge{node[to], rw})
		}
	}
	next := make(map[version]int64) // a version's successor's writer, by key order
	for _, k := range keys {
		vs := x.order(k)
		for i := 1; i < len(vs); i++ {
			if vs[i].n != vs[i-1].n { // a fork is check (b)'s to report
				add(vs[i-1].v, vs[i].v, false)
				next[version{k, vs[i-1].v}] = vs[i].v
			}
		}
	}
	for _, tx := range h.txns {
		if !tx.committed {
			continue
		}
		for _, op := range tx.ops {
			ver := version{op.k, op.v}
			if op.write || (op.v != 0 && x.committed[ver] == nil) {
				continue
			}
			add(op.v, tx.id, false)
			if w, ok := next[ver]; ok {
				add(tx.id, w, true)
			}
		}
	}
	// Iterative DFS over (txn, last edge rw) with colours: a grey target
	// closes a cycle.
	const white, grey, black = 0, 1, 2
	colour := make([]int8, 2*len(ids))
	parent := make([]int, 2*len(ids))
	for root := range colour {
		if colour[root] != white {
			continue
		}
		type frame struct{ u, i int }
		stack := []frame{{root, 0}}
		colour[root] = grey
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			es := adj[f.u/2]
			if f.i == len(es) {
				colour[f.u] = black
				stack = stack[:len(stack)-1]
				continue
			}
			e := es[f.i]
			f.i++
			if e.rw && f.u%2 == 1 {
				continue // two adjacent rw edges: SI allows the cycle
			}
			v := 2 * e.to
			if e.rw {
				v++
			}
			switch colour[v] {
			case grey:
				cycle := []string{fmt.Sprint(ids[v/2])}
				for w := f.u; w != v; w = parent[w] {
					cycle = append(cycle, fmt.Sprint(ids[w/2]))
				}
				slices.Reverse(cycle)
				cycle = append([]string{fmt.Sprint(ids[v/2])}, cycle...)
				return append(bad, fmt.Sprintf("G-SI cycle with no two adjacent rw edges through txns %s", strings.Join(cycle, " -> ")))
			case white:
				colour[v] = grey
				parent[v] = f.u
				stack = append(stack, frame{v, 0})
			}
		}
	}
	return bad
}

// checkFinal is check (b): the owner's final (v, n) of every key holds
// exactly the acknowledged writes of that key. Its n counts them, so none
// was lost; no two share an n, so none overwrote another it never saw (a
// fork: a lost update); and its v is the write whose n is highest, so the
// writes were not replayed out of order, which a commutative SUM cannot
// see.
func checkFinal(h history, x *versions, keys []int, final map[int]hop) []string {
	var bad []string
	for _, k := range keys {
		f, ok := final[k]
		if !ok {
			bad = append(bad, fmt.Sprintf("key %d: missing from the owner", k))
			continue
		}
		var writes int64
		at := map[int64]int64{}
		for _, tx := range h.txns {
			for _, op := range tx.ops {
				if !op.write || op.k != k || !tx.committed {
					continue
				}
				writes++
				if n, ok := x.n[version{k, tx.id}]; ok {
					if n < 1 || n > f.n {
						bad = append(bad, fmt.Sprintf("key %d: txn %d wrote n=%d, outside the final 1..%d", k, tx.id, n, f.n))
					}
					if other, dup := at[n]; dup {
						bad = append(bad, fmt.Sprintf("key %d: txns %d and %d both wrote n=%d: a fork", k, other, tx.id, n))
					}
					at[n] = tx.id
				}
			}
		}
		if f.n != writes {
			bad = append(bad, fmt.Sprintf("key %d: final n=%d, but %d acknowledged commits wrote it", k, f.n, writes))
		}
		switch n, ok := x.n[version{k, f.v}]; {
		case f.v == 0:
			if writes > 0 {
				bad = append(bad, fmt.Sprintf("key %d: final v is the initial load's, after %d acknowledged writes", k, writes))
			}
		case x.committed[version{k, f.v}] == nil:
			bad = append(bad, fmt.Sprintf("key %d: final v=%d, which no acknowledged commit wrote", k, f.v))
		case ok && n != f.n:
			bad = append(bad, fmt.Sprintf("key %d: final v=%d is the write at n=%d, not the highest n=%d: a misordered replay", k, f.v, n, f.n))
		}
	}
	return bad
}

// checkErrors is check (d): the only client error SI itself makes here is
// a first-updater-wins serialization failure.
func checkErrors(h history) []string {
	var bad []string
	for _, e := range h.errs {
		if !strings.Contains(e, "could not serialize") {
			bad = append(bad, "client error SI does not make: "+e)
		}
	}
	return bad
}

// Workload shape: dense keys 0..15, of which 0..3 are hot, and sparse
// keys 64 apart, each in its own 64-key block.
const (
	oracleHot      = 4
	oracleDense    = 16
	oracleSparse   = 8
	oracleSessions = 6
	oracleTxns     = 24 // per session; see oracleRun
	oracleStraddle = 4  // session 0's transaction open when Migrate is called
)

func oracleKeys() []int {
	keys := make([]int, 0, oracleDense+oracleSparse)
	for k := 0; k < oracleDense; k++ {
		keys = append(keys, k)
	}
	for i := 0; i < oracleSparse; i++ {
		keys = append(keys, 1024+64*i)
	}
	return keys
}

// oracleKey draws a key: hot half the time, else any dense or sparse key.
func oracleKey(rng *rand.Rand) int {
	switch rng.IntN(4) {
	case 0, 1:
		return rng.IntN(oracleHot)
	case 2:
		return rng.IntN(oracleDense)
	}
	return 1024 + 64*rng.IntN(oracleSparse)
}

// oracleOp is one planned statement: a read or a write of k.
type oracleOp struct {
	k     int
	write bool
}

// planTxn draws one transaction: its statements and whether it is a
// single autocommit statement. A transaction writes its keys in ascending
// order, so no two deadlock, and each key at most once.
func planTxn(rng *rand.Rand) (ops []oracleOp, autocommit bool) {
	writesAbove := func(lo, max int) []oracleOp {
		var ks []int
		for range rng.IntN(max + 1) {
			if k := oracleKey(rng); k > lo && !slices.Contains(ks, k) {
				ks = append(ks, k)
			}
		}
		slices.Sort(ks)
		out := make([]oracleOp, len(ks))
		for i, k := range ks {
			out[i] = oracleOp{k, true}
		}
		return out
	}
	reads := func(max int) []oracleOp {
		out := make([]oracleOp, rng.IntN(max+1))
		for i := range out {
			out[i] = oracleOp{k: oracleKey(rng)}
		}
		return out
	}
	switch r := rng.IntN(20); {
	case r < 4: // autocommit write
		return []oracleOp{{oracleKey(rng), true}}, true
	case r < 6: // autocommit read
		return []oracleOp{{k: oracleKey(rng)}}, true
	case r < 9: // write skew: read a hot pair, write one of it
		x := 2 * rng.IntN(oracleHot/2)
		return []oracleOp{{k: x}, {k: x + 1}, {x + rng.IntN(2), true}}, false
	case r < 13: // opens with a write on a hot key
		h := rng.IntN(oracleHot)
		ops = append([]oracleOp{{h, true}}, reads(2)...)
		return append(ops, writesAbove(h, 1)...), false
	case r < 15: // read-only
		return append(reads(2), oracleOp{k: oracleKey(rng)}), false
	}
	ops = append(reads(2), oracleOp{k: oracleKey(rng)})
	return append(ops, writesAbove(-1, 3)...), false
}

// oracleClient is one session's connection and record.
type oracleClient struct {
	c    *wire.Client
	ids  *atomic.Int64
	hist history
}

func (oc *oracleClient) fail(err error) error {
	oc.hist.errs = append(oc.hist.errs, err.Error())
	return err
}

func (oc *oracleClient) read(k int) (hop, error) {
	res, err := oc.c.Exec(fmt.Sprintf("SELECT v, n FROM kv WHERE k = %d", k))
	if err != nil {
		return hop{}, oc.fail(err)
	}
	if len(res.Rows) != 1 {
		return hop{}, oc.fail(fmt.Errorf("key %d: %d rows", k, len(res.Rows)))
	}
	return hop{k: k, v: res.Rows[0][0].Int, n: res.Rows[0][1].Int}, nil
}

// do runs one statement of tx; a write inside a transaction reads its own
// version back, so the history knows its n.
func (oc *oracleClient) do(tx *htxn, op oracleOp, autocommit bool) error {
	if !op.write {
		h, err := oc.read(op.k)
		if err == nil {
			tx.ops = append(tx.ops, h)
		}
		return err
	}
	if _, err := oc.c.Exec(fmt.Sprintf("UPDATE kv SET v = %d, n = n + 1 WHERE k = %d", tx.id, op.k)); err != nil {
		return oc.fail(err)
	}
	if autocommit {
		tx.ops = append(tx.ops, hop{k: op.k, write: true, v: tx.id, n: -1})
		return nil
	}
	h, err := oc.read(op.k)
	if err == nil {
		h.write = true
		tx.ops = append(tx.ops, h)
	}
	return err
}

// run executes one planned transaction. hold, when set, runs between its
// first statement and the rest: the transaction is in flight meanwhile.
func (oc *oracleClient) run(ops []oracleOp, autocommit, post bool, hold func()) {
	tx := &htxn{id: oc.ids.Add(1), post: post}
	oc.hist.txns = append(oc.hist.txns, tx)
	if autocommit {
		tx.committed = oc.do(tx, ops[0], true) == nil
		return
	}
	if _, err := oc.c.Exec("BEGIN"); err != nil {
		oc.fail(err)
		return
	}
	for i, op := range ops {
		if err := oc.do(tx, op, false); err != nil {
			if _, err := oc.c.Exec("ROLLBACK"); err != nil {
				oc.fail(err)
			}
			return
		}
		if i == 0 && hold != nil {
			hold()
		}
	}
	res, err := oc.c.Exec("COMMIT")
	if err != nil {
		oc.fail(err)
		return
	}
	tx.committed = res.Tag == "COMMIT"
}

// oracleRun is one seeded run: a migration of tenant "a" from node0 to
// node1 under strategy st, with oracleSessions sessions of oracleTxns
// transactions each. Session 0 calls for the migration from inside its
// oracleStraddle'th transaction and holds it open until Migrate has
// claimed the tenant, so Step 1 drains it. The restore's first dial waits
// for load: held, for all of it, and the source, kept, must then equal the
// destination; otherwise, for every session's first half, and the last
// quarter of each session waits for Migrate to return, so writers commit
// on the destination after the switch-over and the source copy is dropped.
type oracleRun struct {
	st   Strategy
	seed uint64
	held bool
}

// oracleResult is what one run observed.
type oracleResult struct {
	hist     history
	final    map[int]hop
	syncsets int
	post     int      // write transactions committed after Migrate returned
	faults   []string // check (c), and a migration that did not succeed
}

func (r oracleRun) String() string {
	mode := "through"
	if r.held {
		mode = "held"
	}
	return fmt.Sprintf("%s seed %d (%s)", r.st, r.seed, mode)
}

func (r oracleRun) execute(t *testing.T) oracleResult {
	var out oracleResult
	mw, err := New(Options{Flow: flow.Config{Deadline: 30 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	defer mw.Close()
	rig := &testRig{mw: mw}
	for i := 0; i < 2; i++ {
		n, err := cluster.NewNode(fmt.Sprintf("node%d", i), cluster.NodeOptions{Engine: engine.Options{
			WAL: wal.Options{SyncDelay: 100 * time.Microsecond, Mode: wal.GroupCommit},
		}})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		mw.AddNode(n)
		rig.nodes = append(rig.nodes, n)
	}
	if err := mw.ProvisionTenant("a", "node0"); err != nil {
		t.Fatal(err)
	}
	keys := oracleKeys()
	rows := make([]string, len(keys))
	for i, k := range keys {
		rows[i] = fmt.Sprintf("(%d, 0, 0)", k)
	}
	c := rig.connect(t, "a")
	mustExecAll(t, c, "CREATE TABLE kv (k INT PRIMARY KEY, v INT, n INT)",
		"INSERT INTO kv (k, v, n) VALUES "+strings.Join(rows, ", "))
	c.Close()
	tn, _ := mw.Tenant("a")

	var ids atomic.Int64
	var firstHalf, load sync.WaitGroup
	firstHalf.Add(oracleSessions)
	load.Add(oracleSessions)
	straddling := make(chan struct{})
	migrated := make(chan struct{})
	claimed := func() bool {
		tn.mu.Lock()
		defer tn.mu.Unlock()
		return tn.phase != ""
	}
	clients := make([]*oracleClient, oracleSessions)
	for s := range clients {
		cl, err := wire.Dial(mw.Addr(), "a")
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		clients[s] = &oracleClient{c: cl, ids: &ids}
	}
	for s, oc := range clients {
		go func() {
			defer load.Done()
			rng := rand.New(rand.NewPCG(r.seed, uint64(s)))
			for i := 0; i < oracleTxns; i++ {
				if i == oracleTxns/2 {
					firstHalf.Done()
				}
				post := !r.held && i >= oracleTxns*3/4
				if post && i == oracleTxns*3/4 {
					<-migrated
				}
				ops, auto := planTxn(rng)
				var hold func()
				if s == 0 && i == oracleStraddle {
					auto, ops[0].write = false, false
					hold = func() {
						close(straddling)
						for !claimed() {
							select {
							case <-migrated:
								return
							default:
								time.Sleep(50 * time.Microsecond)
							}
						}
					}
				}
				oc.run(ops, auto, post, hold)
				if hold != nil && len(oc.hist.txns[len(oc.hist.txns)-1].ops) == 0 {
					close(straddling) // its first statement failed
				}
			}
		}()
	}
	loadDone := make(chan struct{})
	go func() { load.Wait(); close(loadDone) }()
	rig.hook(1, func(call int) { // the restore's first dial
		if call != 1 {
			return
		}
		if r.held {
			<-loadDone
		} else {
			firstHalf.Wait()
		}
	})

	<-straddling
	rep, err := mw.Migrate("a", "node1", MigrateOptions{Strategy: r.st, KeepSource: r.held})
	close(migrated)
	<-loadDone
	if err != nil {
		out.faults = append(out.faults, fmt.Sprintf("migrate: %v", err))
	}
	for _, oc := range clients {
		out.hist.txns = append(out.hist.txns, oc.hist.txns...)
		out.hist.errs = append(out.hist.errs, oc.hist.errs...)
	}
	for _, tx := range out.hist.txns {
		if tx.post && tx.committed && slices.ContainsFunc(tx.ops, func(h hop) bool { return h.write }) {
			out.post++
		}
	}
	if rep != nil {
		out.syncsets = rep.Propagation.Syncsets
	}

	// (c): routing names the destination, no migration is open, and the
	// source either dropped its copy or, kept, froze it equal.
	owner, _ := tn.Node()
	if owner.BackendName() != "node1" {
		out.faults = append(out.faults, fmt.Sprintf("tenant routed to %s, want node1", owner.BackendName()))
	}
	if claimed() {
		out.faults = append(out.faults, "tenant still claimed by a migration")
	}
	if r.held {
		if src, dst := nodeDump(t, rig.nodes[0], "a"), nodeDump(t, rig.nodes[1], "a"); !slices.Equal(src, dst) {
			out.faults = append(out.faults, fmt.Sprintf("source dump (%d lines) differs from destination dump (%d lines)", len(src), len(dst)))
		}
	} else if cl, err := rig.nodes[0].Connect("a"); err == nil {
		cl.Close()
		out.faults = append(out.faults, "node0 still serves tenant a after the switch-over")
	}
	out.final, err = finalState(owner)
	if err != nil {
		out.faults = append(out.faults, fmt.Sprintf("final state: %v", err))
	}
	return out
}

// finalState reads every key's (v, n) directly from node n.
func finalState(n Backend) (map[int]hop, error) {
	c, err := n.Connect("a")
	if err != nil {
		return nil, err
	}
	defer c.Close()
	res, err := c.Exec("SELECT k, v, n FROM kv")
	if err != nil {
		return nil, err
	}
	out := make(map[int]hop, len(res.Rows))
	for _, row := range res.Rows {
		k := int(row[0].Int)
		out[k] = hop{k: k, v: row[1].Int, n: row[2].Int}
	}
	return out, nil
}

// check holds one run's result to the contract: (a)-(d), or for a
// strategy whose full check is still to come, (b) and (c).
func (r oracleRun) check(res oracleResult, full bool) []string {
	keys := oracleKeys()
	x := indexHistory(res.hist, res.final)
	bad := slices.Clone(res.faults)
	bad = append(bad, checkFinal(res.hist, x, keys, res.final)...)
	if full {
		bad = append(bad, checkSI(res.hist, x, keys)...)
		bad = append(bad, checkErrors(res.hist)...)
	}
	if res.syncsets == 0 {
		bad = append(bad, "no syncsets propagated: the migration did not overlap the load")
	}
	if !r.held && res.post == 0 {
		bad = append(bad, "no write committed after the switch-over")
	}
	return bad
}

// oracleSeeds is the seed count per fully checked strategy: 100 seeds each
// for Madeus and B-ALL, held and through alternating, and 20 under -race.
func oracleSeeds() int {
	if raceEnabled {
		return 20
	}
	return 100
}

// TestMigrateUnderLoadAllStrategiesConsistent runs the oracle's odd seeds,
// whose writers keep committing on the destination after the switch-over.
func TestMigrateUnderLoadAllStrategiesConsistent(t *testing.T) {
	runOracle(t, false)
}

// TestMigrateUnderRandomLoadSlaveEqual runs the oracle's even seeds, whose
// restore is held until the load ends, so the kept source must equal the
// promoted slave.
func TestMigrateUnderRandomLoadSlaveEqual(t *testing.T) {
	runOracle(t, true)
}

// runOracle runs every strategy's seeds of one mode: held, the even seeds,
// or through, the odd ones. Madeus and B-ALL pass (a)-(d) on every seed;
// B-MIN and B-CON pass (b) and (c) on seeds 1-10.
func runOracle(t *testing.T, held bool) {
	for _, st := range Strategies() {
		t.Run(st.String(), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			full, seeds := st == Madeus || st == BAll, oracleSeeds()
			if !full {
				seeds = min(seeds, 10)
			}
			for seed := 1; seed <= seeds; seed++ {
				if (seed%2 == 0) != held {
					continue
				}
				r := oracleRun{st: st, seed: uint64(seed), held: held}
				if bad := r.check(r.execute(t), full); len(bad) > 0 {
					if len(bad) > 12 {
						bad = append(bad[:12], fmt.Sprintf("... and %d more", len(bad)-12))
					}
					t.Errorf("%s:\n  %s", r, strings.Join(bad, "\n  "))
				}
			}
		})
	}
}

// TestHistoryCheckerRejects: hand-built histories the checker must fail,
// one per kind of violation, and a write skew, which SI allows, that it
// must pass.
func TestHistoryCheckerRejects(t *testing.T) {
	w := func(k int, id, n int64) hop { return hop{k: k, write: true, v: id, n: n} }
	rd := func(k int, v, n int64) hop { return hop{k: k, v: v, n: n} }
	tx := func(id int64, committed bool, ops ...hop) *htxn {
		return &htxn{id: id, ops: ops, committed: committed}
	}
	keys := []int{0, 1}
	init := map[int]hop{0: {k: 0}, 1: {k: 1}}
	final := func(v0, n0, v1, n1 int64) map[int]hop {
		return map[int]hop{0: {k: 0, v: v0, n: n0}, 1: {k: 1, v: v1, n: n1}}
	}
	cases := []struct {
		name  string
		h     history
		final map[int]hop
		want  string // "" for a history that must pass
	}{
		{"fork on one key", history{txns: []*htxn{
			tx(1, true, rd(0, 0, 0), w(0, 1, 1)),
			tx(2, true, rd(0, 0, 0), w(0, 2, 1)),
		}}, final(2, 1, 0, 0), "a fork"},
		{"read of an aborted write", history{txns: []*htxn{
			tx(1, false, w(0, 1, 1)),
			tx(2, true, rd(0, 1, 1)),
		}}, init, "aborted txn 1"},
		{"reads from two snapshots", history{txns: []*htxn{
			tx(1, true, w(0, 1, 1), w(1, 1, 1)),
			tx(2, true, rd(0, 0, 0), rd(1, 1, 1)),
		}}, final(1, 1, 1, 1), "G-SI cycle"},
		{"final v not the highest n", history{txns: []*htxn{
			tx(1, true, w(0, 1, 1)),
			tx(2, true, rd(0, 1, 1), w(0, 2, 2)),
		}}, final(1, 2, 0, 0), "misordered replay"},
		{"lock-timeout error", history{errs: []string{"mvcc: lock wait timeout (possible deadlock)"}}, init, "SI does not make"},
		{"write skew", history{txns: []*htxn{
			tx(1, true, rd(0, 0, 0), rd(1, 0, 0), w(0, 1, 1)),
			tx(2, true, rd(0, 0, 0), rd(1, 0, 0), w(1, 2, 1)),
		}, errs: []string{"mvcc: could not serialize access due to concurrent update"}}, final(1, 1, 2, 1), ""},
	}
	for _, tc := range cases {
		x := indexHistory(tc.h, tc.final)
		bad := append(checkSI(tc.h, x, keys), checkFinal(tc.h, x, keys, tc.final)...)
		bad = append(bad, checkErrors(tc.h)...)
		got := strings.Join(bad, "; ")
		switch {
		case tc.want == "" && got != "":
			t.Errorf("%s: rejected: %s", tc.name, got)
		case tc.want != "" && !strings.Contains(got, tc.want):
			t.Errorf("%s: got %q, want a violation naming %q", tc.name, got, tc.want)
		}
	}
}
