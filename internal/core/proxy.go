package core

import (
	"fmt"
	"slices"
	"sync"

	"madeus/internal/cluster"
	"madeus/internal/engine"
	"madeus/internal/flow"
	"madeus/internal/sqlmini"
	"madeus/internal/wire"
)

// Options configures the middleware.
type Options struct {
	// ListenAddr for the customer-facing wire server. Defaults to
	// "127.0.0.1:0".
	ListenAddr string
	// Flow is the backpressure/admission-control configuration (SSL caps,
	// adaptive pacing, the migration watchdog and its deadline, session
	// limits), validated by New. The zero value disables the whole layer
	// but the deadline, which defaults to flow.DefaultDeadline so that a
	// slave that cannot catch up is given up ("FLOW SET deadline 0s"
	// turns it off); flow.DefaultConfig() is the calibrated production
	// set. Runtime-tunable via FLOW SET.
	Flow flow.Config
}

// Backend is a DBMS node as the middleware sees it: a name, per-database
// sessions, and tenant provisioning. *cluster.Node (in-process, used by
// tests and the bench harness) and *cluster.Remote (another process,
// addressed over the wire — the deployment cmd/madeusd manages) both
// implement it.
type Backend interface {
	BackendName() string
	Connect(db string) (*wire.Client, error)
	CreateDatabase(db string) error
	DropDatabase(db string) error
}

var (
	_ Backend = (*cluster.Node)(nil)
	_ Backend = (*cluster.Remote)(nil)
)

// Middleware is the Madeus process (Fig 1/2): it terminates customer
// connections, relays operations to each tenant's master node through
// workers, and runs migrations.
type Middleware struct {
	flow *flow.Governor

	// dumpChunk and catchupDebt are the statements per Step-1 chunk and
	// the Step-3 catch-up threshold, engine.DefaultDumpChunk and
	// flow.CatchupDebt. Unexported so only this package's tests can shrink
	// them, and only before a migration starts.
	dumpChunk   int
	catchupDebt int

	mu      sync.RWMutex //madeusvet:lockrank middleware 10
	tenants map[string]*Tenant
	nodes   map[string]Backend

	srv *wire.Server
}

// New starts a middleware instance with its customer-facing listener.
func New(opts Options) (*Middleware, error) {
	if opts.ListenAddr == "" {
		opts.ListenAddr = "127.0.0.1:0"
	}
	if opts.Flow.Deadline == 0 {
		opts.Flow.Deadline = flow.DefaultDeadline
	}
	gov, err := flow.NewGovernor(opts.Flow)
	if err != nil {
		return nil, err
	}
	m := &Middleware{
		flow:        gov,
		dumpChunk:   engine.DefaultDumpChunk,
		catchupDebt: flow.CatchupDebt,
		tenants:     make(map[string]*Tenant),
		nodes:       make(map[string]Backend),
	}
	srv, err := wire.Listen(opts.ListenAddr, m)
	if err != nil {
		return nil, err
	}
	m.srv = srv
	return m, nil
}

// Addr is the customer-facing address.
func (m *Middleware) Addr() string { return m.srv.Addr() }

// Close stops the customer-facing server. Nodes are owned by the caller.
func (m *Middleware) Close() { m.srv.Close() }

// AddNode registers a DBMS node with the middleware.
func (m *Middleware) AddNode(n Backend) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nodes[n.BackendName()] = n
}

// ReplaceNode swaps a registered node handle for a fresh one carrying the
// same backend name — the restart path: a crashed dbnode that recovered its
// tenants from its data dir comes back as a new Backend (new listener, same
// durable state). Tenants mastered on that node are repointed and their
// routing generation bumps, so proxy sessions reconnect lazily to the
// recovered node; a migration that was in flight against the old handle
// fails and rolls back like any connection loss, leaving the tenant
// re-migratable.
func (m *Middleware) ReplaceNode(n Backend) error {
	name := n.BackendName()
	m.mu.Lock()
	if _, ok := m.nodes[name]; !ok {
		m.mu.Unlock()
		return fmt.Errorf("core: unknown node %q", name)
	}
	m.nodes[name] = n
	tenants := make([]*Tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		tenants = append(tenants, t)
	}
	m.mu.Unlock()
	for _, t := range tenants {
		t.rebind(n)
	}
	return nil
}

// Node returns a registered node.
func (m *Middleware) Node(name string) (Backend, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n, ok := m.nodes[name]
	return n, ok
}

// AddTenant registers an existing tenant database living on the named node.
// The probe dial runs outside m.mu: a slow dial must not stall every
// Tenant lookup, and a Backend's Connect may itself read the middleware.
func (m *Middleware) AddTenant(tenant, nodeName string) error {
	m.mu.RLock()
	node, ok := m.nodes[nodeName]
	_, dup := m.tenants[tenant]
	m.mu.RUnlock()
	if !ok {
		return fmt.Errorf("core: unknown node %q", nodeName)
	}
	if dup {
		return fmt.Errorf("core: tenant %q already registered", tenant)
	}
	// Probe that the tenant database exists on the node.
	probe, err := node.Connect(tenant)
	if err != nil {
		return fmt.Errorf("core: node %q has no database %q: %w", nodeName, tenant, err)
	}
	probe.Close()
	t := NewTenant(tenant, node, m.flow)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.tenants[tenant]; dup {
		return fmt.Errorf("core: tenant %q already registered", tenant)
	}
	t.registerObs()
	m.tenants[tenant] = t
	return nil
}

// RemoveTenant deregisters a tenant from the middleware: routing stops,
// its dynamic gauges are dropped, and its admission limiter is released.
// The tenant database itself is untouched — removal is a middleware
// bookkeeping operation, not a DROP DATABASE. Fails while a migration is
// in flight.
func (m *Middleware) RemoveTenant(tenant string) error {
	m.mu.Lock()
	t, ok := m.tenants[tenant]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("core: unknown tenant %q", tenant)
	}
	if t.State() == StateMigrating {
		m.mu.Unlock()
		return fmt.Errorf("core: tenant %q is migrating; cannot remove", tenant)
	}
	delete(m.tenants, tenant)
	m.mu.Unlock()
	t.teardownObs()
	return nil
}

// Flow exposes the live backpressure configuration (admin FLOW surface).
func (m *Middleware) Flow() *flow.Governor { return m.flow }

// ProvisionTenant creates the tenant database on the named node and
// registers it.
func (m *Middleware) ProvisionTenant(tenant, nodeName string) error {
	m.mu.RLock()
	node, ok := m.nodes[nodeName]
	m.mu.RUnlock()
	if !ok {
		return fmt.Errorf("core: unknown node %q", nodeName)
	}
	if err := node.CreateDatabase(tenant); err != nil {
		return err
	}
	return m.AddTenant(tenant, nodeName)
}

// Tenant returns the named tenant's middleware state.
func (m *Middleware) Tenant(name string) (*Tenant, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.tenants[name]
	return t, ok
}

// Tenants lists registered tenant names.
func (m *Middleware) Tenants() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.tenants))
	for n := range m.tenants {
		out = append(out, n)
	}
	return out
}

// Connect implements wire.Handler: each customer connection gets a worker;
// connections to AdminDB get the operator control channel.
func (m *Middleware) Connect(database string) (wire.Conn, error) {
	if database == AdminDB {
		return &adminConn{mw: m}, nil
	}
	t, ok := m.Tenant(database)
	if !ok {
		return nil, fmt.Errorf("core: unknown tenant %q", database)
	}
	// Admission control: past the per-tenant cap the session queues; past
	// the queue (or the wait timeout) it is shed here with a typed
	// overload error, which the wire server returns as a clean startup
	// error — the client's Dial fails fast instead of the process
	// accumulating goroutines it cannot serve.
	release, err := t.limiter.Admit()
	if err != nil {
		return nil, err
	}
	t.sessions.Add(1)
	return &worker{mw: m, tenant: t, release: release}, nil
}

// worker is the middleware-side session for one customer connection; it
// implements Algorithms 1 and 2: relay every operation to the tenant's
// master, and, inside a migration's capture window, capture syncsets under
// the critical region (master).
type worker struct {
	mw      *Middleware
	tenant  *Tenant
	release func() // admission slot; called exactly once on Close

	backend    *wire.Client
	backendGen int

	inTxn     bool
	firstSeen bool // a first operation succeeded
	// wrote records whether the transaction wrote anything: a read-only
	// transaction neither advances the MLC nor links its SSB (mapping
	// function, Definition 2) — except under B-ALL capture, which
	// propagates it too.
	wrote bool
	// ssb is the transaction's syncset buffer, built only when its first
	// operation ran inside the tenant's capture window; nil otherwise.
	ssb *SSB
}

// ensureBackend (re)connects to the tenant's current master if the tenant
// moved since the last operation (lazy switch-over). It must be called
// WITHOUT t.mu held: it reads the routing state itself. Once a transaction
// is in flight the tenant cannot switch (the manager drains active
// transactions first), so calling it before entering the critical region is
// safe.
func (w *worker) ensureBackend() error {
	node, gen := w.tenant.Node()
	if w.backend == nil || w.backendGen != gen {
		if w.backend != nil {
			w.backend.Close()
			w.backend = nil
		}
		c, err := node.Connect(w.tenant.Name)
		if err != nil {
			return fmt.Errorf("core: connect to %s: %w", node.BackendName(), err)
		}
		w.backend = c
		w.backendGen = gen
	}
	return nil
}

// relay forwards sql to the tenant's current master and returns its reply
// payload, borrowed from the backend client until the next call on it. Not
// for use under t.mu: ensureBackend takes it. First operations, update
// COMMITs and autocommit writes go through master instead.
func (w *worker) relay(sql string) ([]byte, error) {
	if err := w.ensureBackend(); err != nil {
		return nil, err
	}
	return w.backend.ExecReply(sql)
}

// Exec implements wire.Conn: it processes one customer operation and
// appends the master's reply payload to dst byte for byte. The worker never
// decodes a result; the COMMIT path reads only the reply's tag.
func (w *worker) Exec(sql string, dst []byte) ([]byte, error) {
	reply, err := w.exec(sql)
	if err != nil {
		return dst, err
	}
	return append(dst, reply...), nil
}

// exec is the worker body; the reply it returns is borrowed from
// w.backend, valid until the worker's next round trip.
func (w *worker) exec(sql string) ([]byte, error) {
	obsWorkerOps.Inc()
	if engine.IsRowStatement(sql) {
		// Relayed, a dump's rows would be a write outside the critical
		// region and the SSB: Theorem 1 would not hold.
		return nil, &wire.ServerError{Msg: "core: row statements are for restores, not clients"}
	}
	class, err := sqlmini.ClassifyQuery(sql)
	if err != nil {
		// Meta commands (DUMP, CREATE DATABASE, ...): relay verbatim.
		return w.relay(sql)
	}
	if w.inTxn {
		return w.execInTxn(sql, class)
	}
	return w.execAutocommit(sql, class)
}

func (w *worker) execInTxn(sql string, class sqlmini.OpClass) ([]byte, error) {
	t := w.tenant
	switch class {
	case sqlmini.OpBegin:
		return nil, &wire.ServerError{Msg: "core: BEGIN inside a transaction block"}

	case sqlmini.OpCommit:
		return w.execCommit(sql)

	case sqlmini.OpAbort:
		reply, err := w.relay(sql)
		w.endTxn()
		return reply, err

	default: // reads, writes, DDL
		isWrite := isUpdate(class)
		if !w.firstSeen { // the first operation (Algorithm 1, lines 2-9)
			reply, err := w.master(sql, class, true, false)
			if err != nil {
				return nil, err
			}
			w.wrote = isWrite
			w.firstSeen = true
			return reply, nil
		}
		reply, err := w.relay(sql)
		if err != nil {
			return nil, err
		}
		w.wrote = w.wrote || isWrite
		// Capture writes always; other reads only under B-ALL capture. The
		// SSB is this worker's until its COMMIT links it under t.mu.
		if w.ssb != nil && (isWrite || t.capture.Load() == captureAll) {
			w.ssb.Entries = append(w.ssb.Entries, newEntry(sql, class))
		}
		return reply, nil
	}
}

// master makes one of Algorithm 1's stamped round trips to the tenant's
// master: a transaction's first operation (opens), an update COMMIT
// (closes), or an autocommit write (both). It is the one place that decides
// whether the round trip runs inside the critical region. Theorem 1 needs
// the master's snapshot and commit order mirrored in STS/ETS only for the
// syncsets Step 3 replays, so the region is held for an opening statement
// that finds the tenant capturing and for a COMMIT whose transaction holds
// an SSB; an opening write takes it only for openWrite's SNAPSHOT. The
// caller has registered the transaction (txnStarted), so capture cannot
// open while it runs: Step 1 drains every registered transaction first.
// Outside the window a commit advances the MLC by an atomic add.
func (w *worker) master(sql string, class sqlmini.OpClass, opens, closes bool) ([]byte, error) {
	t := w.tenant
	if err := w.ensureBackend(); err != nil {
		return nil, err
	}
	if opens && class == sqlmini.OpWrite && t.capture.Load() != captureOff {
		return w.openWrite(sql, closes)
	}
	b := w.ssb
	locked := b != nil || opens && t.capture.Load() != captureOff
	if locked {
		// Inside the window the master round trip runs under t.mu by
		// design, so the stamps match the master's order (Algorithm 1,
		// lines 2-9 and 16-29).
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	reply, err := w.backend.ExecReply(sql)
	// An autocommit write committed if it succeeded; a COMMIT if the master
	// says so (a ROLLBACK tag: the transaction was poisoned server-side).
	committed := closes && err == nil && (opens || wire.ResultTagIs(reply, "COMMIT"))
	if locked && opens && err == nil && t.capture.Load() != captureOff { // the window may have closed since
		b = &SSB{STS: t.mlc.Load(), Entries: []Entry{newEntry(sql, class)}}
		if !closes {
			w.ssb = b
			t.firstOpStampedLocked(b)
		}
	}
	if committed {
		ets := t.mlc.Add(1) - 1
		obsMLCAdvance.Inc()
		if b != nil {
			b.ETS = ets
		}
	}
	if closes && b != nil {
		t.resolveSSBLocked(b, committed)
	}
	return reply, err
}

// openWrite runs, inside the capture window, a write that opens its
// transaction. The write can wait on a row lock until another captured
// transaction commits, and that COMMIT needs the critical region, so the
// region covers only a SNAPSHOT round trip: it pins the master's snapshot,
// which is what the STS must match, and the SSB's first entry is still the
// write. The write goes out after the region is released. An autocommit
// write (closes) becomes BEGIN, that step, the write and COMMIT.
func (w *worker) openWrite(sql string, closes bool) ([]byte, error) {
	t := w.tenant
	var err error
	if closes {
		_, err = w.backend.ExecReply("BEGIN")
	}
	if err == nil {
		t.mu.Lock()
		_, err = w.backend.ExecReply("SNAPSHOT")
		if err == nil && t.capture.Load() != captureOff { // the window may have closed since
			w.ssb = &SSB{STS: t.mlc.Load(), Entries: []Entry{newEntry(sql, sqlmini.OpWrite)}}
			t.firstOpStampedLocked(w.ssb)
		}
		t.mu.Unlock()
	}
	var reply []byte
	if err == nil {
		reply, err = w.backend.ExecReply(sql)
	}
	if err != nil {
		if b := w.ssb; b != nil { // the write never happened: nothing to replay
			t.mu.Lock()
			t.resolveSSBLocked(b, false)
			t.mu.Unlock()
			w.ssb = nil
		}
		if closes { // best effort: the client gets the write's error either way
			_, _ = w.backend.ExecReply("ROLLBACK")
		}
		return nil, err
	}
	if !closes {
		return reply, nil
	}
	reply = slices.Clone(reply) // COMMIT's round trip reuses the client's buffer
	commit, err := w.master("COMMIT", sqlmini.OpCommit, false, true)
	w.ssb = nil
	if err == nil && !wire.ResultTagIs(commit, "COMMIT") {
		err = &wire.ServerError{Msg: "core: autocommit write rolled back at COMMIT"}
	}
	if err != nil {
		return nil, err
	}
	return reply, nil
}

// isUpdate reports whether an operation of class writes: a write or DDL.
func isUpdate(class sqlmini.OpClass) bool {
	return class == sqlmini.OpWrite || class == sqlmini.OpDDL
}

// execCommit handles COMMIT: read-only transactions bypass the critical
// region and are discarded; update transactions advance the MLC and, when
// they hold an SSB, commit under the region, stamp ETS, and link to the SSL
// (Algorithm 1, lines 16-29; master).
func (w *worker) execCommit(sql string) ([]byte, error) {
	t := w.tenant
	if !w.wrote {
		// Read-only or empty transaction: no MLC movement. Under
		// B-ALL capture, committed read-only transactions are linked
		// too (it propagates ALL transactions).
		reply, err := w.relay(sql)
		if b := w.ssb; b != nil {
			t.mu.Lock()
			linkRO := t.capture.Load() == captureAll && err == nil && wire.ResultTagIs(reply, "COMMIT")
			if linkRO {
				b.ETS = t.mlc.Load()
			}
			t.resolveSSBLocked(b, linkRO)
			t.mu.Unlock()
		}
		w.endTxn()
		return reply, err
	}

	// Pacing point: an update commit pays the migration controller's
	// current delay BEFORE entering the critical region, so the brake
	// slows the source's commit rate without ever holding t.mu — SI and
	// the MLC/commit-order equivalence are untouched, commits just arrive
	// at the region a little later.
	t.throttle.Wait()
	reply, err := w.master(sql, sqlmini.OpCommit, false, true)
	w.endTxn()
	return reply, err
}

// endTxn resets per-transaction worker state.
func (w *worker) endTxn() {
	t := w.tenant
	if w.ssb != nil {
		// Already resolved by the caller where needed; make sure an
		// abandoned SSB never lingers in the active set.
		t.mu.Lock()
		if _, live := t.activeFirst[w.ssb]; live {
			t.resolveSSBLocked(w.ssb, false)
		}
		t.mu.Unlock()
	}
	w.ssb = nil
	w.inTxn = false
	w.firstSeen = false
	w.wrote = false
	t.txnEnded()
}

func (w *worker) execAutocommit(sql string, class sqlmini.OpClass) ([]byte, error) {
	t := w.tenant
	switch class {
	case sqlmini.OpBegin:
		t.txnStarted()
		reply, err := w.relay(sql)
		if err != nil {
			t.txnEnded()
			return nil, err
		}
		w.inTxn = true
		return reply, nil

	case sqlmini.OpCommit, sqlmini.OpAbort:
		return w.relay(sql) // master reports "outside transaction block"

	case sqlmini.OpRead:
		reply, err := w.relay(sql)
		if err == nil && t.capture.Load() == captureAll {
			t.mu.Lock()
			if t.capture.Load() == captureAll { // the window may have closed since
				mlc := t.mlc.Load()
				t.resolveSSBLocked(&SSB{STS: mlc, ETS: mlc, Entries: []Entry{newEntry(sql, class)}}, true)
			}
			t.mu.Unlock()
		}
		return reply, err

	default: // autocommit write or DDL: a one-statement update transaction
		t.throttle.Wait() // pacing point, same contract as execCommit's
		t.txnStarted()
		reply, err := w.master(sql, class, true, true)
		t.txnEnded()
		return reply, err
	}
}

// Close terminates the worker: abandon any open transaction.
func (w *worker) Close() {
	if w.inTxn {
		// Roll the master-side transaction back and release tracking;
		// the rollback is best-effort (the backend may already be gone).
		_, _ = w.relay("ROLLBACK")
		w.endTxn()
	}
	if w.backend != nil {
		w.backend.Close()
		w.backend = nil
	}
	if w.release != nil {
		w.release()
		w.release = nil
		w.tenant.sessions.Add(-1)
	}
}
