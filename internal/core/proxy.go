package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"madeus/internal/cluster"
	"madeus/internal/engine"
	"madeus/internal/flow"
	"madeus/internal/sqlmini"
	"madeus/internal/wire"
)

// Options configures the middleware.
type Options struct {
	// CatchupTimeout bounds Step 3: if the slave has not caught up with
	// the master within it, the migration is aborted and reported as
	// failed ("the slave could not catch up with the master",
	// Sec 5.3.2's B-CON N/A). Defaults to 2 minutes.
	CatchupTimeout time.Duration
	// ListenAddr for the customer-facing wire server. Defaults to
	// "127.0.0.1:0".
	ListenAddr string
	// Flow is the backpressure/admission-control configuration (SSL caps,
	// adaptive pacing, migration watchdog, session limits), validated by
	// New. The zero value disables the whole layer; flow.DefaultConfig()
	// is the calibrated production set. Runtime-tunable via FLOW SET.
	Flow flow.Config
	// HistoryCadence is the sampling interval of the per-tenant time-series
	// history (lag, debt, ops/s, pace delay, SSL bytes, sessions) recorded
	// into obs.Hist. Defaults to 1s; negative disables the sampler.
	// Runtime-tunable via the admin HISTORY CADENCE command.
	HistoryCadence time.Duration
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
	opts Options
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

	// History sampler (scope.go): cadence is atomic so the admin HISTORY
	// CADENCE command retunes a running loop without locks.
	sampleCadence atomic.Int64 // nanoseconds; <= 0 pauses sampling
	sampleStop    chan struct{}
	sampleDone    chan struct{}
	closeOnce     sync.Once
}

// New starts a middleware instance with its customer-facing listener.
func New(opts Options) (*Middleware, error) {
	if opts.CatchupTimeout <= 0 {
		opts.CatchupTimeout = 2 * time.Minute
	}
	if opts.ListenAddr == "" {
		opts.ListenAddr = "127.0.0.1:0"
	}
	gov, err := flow.NewGovernor(opts.Flow)
	if err != nil {
		return nil, err
	}
	if opts.HistoryCadence == 0 {
		opts.HistoryCadence = time.Second
	}
	m := &Middleware{
		opts:        opts,
		flow:        gov,
		dumpChunk:   engine.DefaultDumpChunk,
		catchupDebt: flow.CatchupDebt,
		tenants:     make(map[string]*Tenant),
		nodes:       make(map[string]Backend),
		sampleStop:  make(chan struct{}),
		sampleDone:  make(chan struct{}),
	}
	m.sampleCadence.Store(int64(opts.HistoryCadence))
	srv, err := wire.Listen(opts.ListenAddr, m)
	if err != nil {
		return nil, err
	}
	m.srv = srv
	go m.sampleLoop()
	return m, nil
}

// Addr is the customer-facing address.
func (m *Middleware) Addr() string { return m.srv.Addr() }

// Close stops the customer-facing server and the history sampler. Nodes
// are owned by the caller.
func (m *Middleware) Close() {
	m.closeOnce.Do(func() {
		close(m.sampleStop)
		<-m.sampleDone
	})
	m.srv.Close()
}

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
// its dynamic gauges and history series are dropped, and its admission
// limiter is released. The tenant database itself is untouched — removal
// is a middleware bookkeeping operation, not a DROP DATABASE. Fails while
// a migration is in flight.
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
// master, and capture syncsets under the critical region.
type worker struct {
	mw      *Middleware
	tenant  *Tenant
	release func() // admission slot; called exactly once on Close

	backend    *wire.Client
	backendGen int

	inTxn     bool
	firstSeen bool // a first operation succeeded (SSB exists)
	ssb       *SSB
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
// for use under t.mu — the critical-region paths call ensureBackend first
// and then w.backend.ExecReply directly.
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
	w.tenant.ops.Add(1)
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
		if !w.firstSeen {
			return w.execFirstOp(sql, class)
		}
		reply, err := w.relay(sql)
		if err != nil {
			return nil, err
		}
		// Capture writes always; other reads only under B-ALL capture.
		isWrite := class == sqlmini.OpWrite || class == sqlmini.OpDDL
		t.mu.Lock()
		if w.ssb != nil && (isWrite || t.captureAll) {
			w.ssb.Entries = append(w.ssb.Entries, newEntry(sql, class))
			if isWrite {
				w.ssb.update = true
			}
		}
		t.mu.Unlock()
		return reply, nil
	}
}

// execFirstOp handles the transaction's first operation: executed under the
// critical region so the STS stamp matches the master-side snapshot order
// (Algorithm 1, lines 2-9).
func (w *worker) execFirstOp(sql string, class sqlmini.OpClass) ([]byte, error) {
	t := w.tenant
	if err := w.ensureBackend(); err != nil {
		return nil, err
	}
	t.mu.Lock()
	// Algorithm 1's critical region REQUIRES the master round-trip under
	// t.mu: the STS stamp must equal the master-side snapshot order, so the
	// first op executes under the tenant mutex by design.
	reply, err := w.backend.ExecReply(sql)
	if err != nil {
		t.mu.Unlock()
		return nil, err
	}
	b := &SSB{STS: t.mlc}
	b.Entries = append(b.Entries, newEntry(sql, class))
	if class == sqlmini.OpWrite || class == sqlmini.OpDDL {
		b.update = true
	}
	t.firstOpStampedLocked(b)
	t.mu.Unlock()

	w.ssb = b
	w.firstSeen = true
	return reply, nil
}

// execCommit handles COMMIT: read-only transactions bypass the critical
// region and are discarded; update transactions commit under the region,
// stamp ETS, advance the MLC, and link to the SSL (Algorithm 1, lines
// 16-29). The master's answer decides which: a COMMIT tag committed, a
// ROLLBACK tag means the transaction was poisoned server-side.
func (w *worker) execCommit(sql string) ([]byte, error) {
	t := w.tenant
	b := w.ssb

	if b == nil || !b.update {
		// Read-only or empty transaction: no MLC movement. Under
		// B-ALL capture, committed read-only transactions are linked
		// too (it propagates ALL transactions).
		reply, err := w.relay(sql)
		t.mu.Lock()
		if b != nil {
			linkRO := t.captureAll && err == nil && wire.ResultTagIs(reply, "COMMIT")
			if linkRO {
				b.ETS = t.mlc
			}
			t.resolveSSBLocked(b, linkRO)
		}
		t.mu.Unlock()
		w.endTxn()
		return reply, err
	}

	// Pacing point: an update commit pays the migration controller's
	// current delay BEFORE entering the critical region, so the brake
	// slows the source's commit rate without ever holding t.mu — SI and
	// the MLC/commit-order equivalence are untouched, commits just arrive
	// at the region a little later.
	t.throttle.Wait()
	if err := w.ensureBackend(); err != nil {
		t.mu.Lock()
		t.resolveSSBLocked(b, false)
		t.mu.Unlock()
		w.endTxn()
		return nil, err
	}
	t.mu.Lock()
	// COMMIT executes under the critical region, holding the tenant mutex
	// across the round trip by design, so ETS assignment matches the
	// master's commit order (Algorithm 1, lines 16-29).
	reply, err := w.backend.ExecReply(sql)
	if err == nil && wire.ResultTagIs(reply, "COMMIT") {
		b.ETS = t.mlc
		t.mlc++
		obsMLCAdvance.Inc()
		t.resolveSSBLocked(b, true)
	} else {
		t.resolveSSBLocked(b, false)
	}
	t.mu.Unlock()
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
		w.firstSeen = false
		w.ssb = nil
		return reply, nil

	case sqlmini.OpCommit, sqlmini.OpAbort:
		return w.relay(sql) // master reports "outside transaction block"

	case sqlmini.OpRead:
		reply, err := w.relay(sql)
		if err == nil {
			t.mu.Lock()
			if t.migrating && t.captureAll {
				b := &SSB{STS: t.mlc, ETS: t.mlc}
				b.Entries = append(b.Entries, newEntry(sql, class))
				t.resolveSSBLocked(b, true)
			}
			t.mu.Unlock()
		}
		return reply, err

	default: // autocommit write or DDL: a one-statement update transaction
		t.throttle.Wait() // pacing point, same contract as execCommit's
		t.txnStarted()
		if err := w.ensureBackend(); err != nil {
			t.txnEnded()
			return nil, err
		}
		t.mu.Lock()
		// One-statement update transaction: stamped and committed inside
		// the critical region like any other commit, so the autocommit
		// write executes under the tenant mutex by design (Algorithm 1).
		reply, err := w.backend.ExecReply(sql)
		if err == nil {
			b := &SSB{STS: t.mlc, ETS: t.mlc, update: true}
			b.Entries = append(b.Entries, newEntry(sql, class))
			t.mlc++
			obsMLCAdvance.Inc()
			t.resolveSSBLocked(b, true)
		}
		t.mu.Unlock()
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
