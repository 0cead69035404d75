// Package cluster assembles DBMS nodes the way the paper's testbed does:
// each node runs one engine instance (the shared process model) behind a
// wire server, and nodes are reached over TCP with an injectable network
// round-trip time standing in for the 1 GbE LAN of the evaluation cluster.
package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"madeus/internal/engine"
	"madeus/internal/obs"
	"madeus/internal/wire"
)

// NodeOptions configures one node.
type NodeOptions struct {
	// Engine configures the DBMS instance on the node.
	Engine engine.Options
	// RTT is the simulated network round trip added to every operation
	// sent to this node.
	RTT time.Duration
	// Listen overrides the default 127.0.0.1:0 listen address.
	Listen string
	// Scope overrides the node's observability scope. Defaults to the
	// process scope — correct for a real one-node-per-process deployment.
	// Tests that stand several nodes up inside one process give each a
	// private scope so trace scrapes return per-node (not process-merged)
	// timelines, exactly as a multi-machine cluster would.
	Scope *obs.Scope
}

// Node is one machine: an engine plus its wire server.
type Node struct {
	Name   string
	Engine *engine.Engine

	srv   *wire.Server
	rtt   time.Duration
	scope *obs.Scope
}

// SysDB is the control database every node carries so that remote
// administrators (and the Madeus manager) can open a session before any
// tenant database exists, e.g. to issue CREATE DATABASE.
const SysDB = "_sys"

// NewNode starts a node listening on a free localhost port (or opts.Listen).
// With a DataDir in the engine options the node recovers its tenants from
// disk first; SysDB is only provisioned when recovery did not bring it back.
func NewNode(name string, opts NodeOptions) (*Node, error) {
	e, err := engine.Open(opts.Engine)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %s: %w", name, err)
	}
	if _, ok := e.Database(SysDB); !ok {
		if err := e.CreateDatabase(SysDB); err != nil {
			e.Close()
			return nil, err
		}
	}
	addr := opts.Listen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	srv, err := wire.Listen(addr, wire.EngineHandler(e))
	if err != nil {
		e.Close()
		return nil, fmt.Errorf("cluster: node %s: %w", name, err)
	}
	scope := opts.Scope
	if scope == nil {
		scope = obs.Process()
	}
	srv.SetScope(scope)
	return &Node{Name: name, Engine: e, srv: srv, rtt: opts.RTT, scope: scope}, nil
}

// Scope returns the node's observability scope.
func (n *Node) Scope() *obs.Scope { return n.scope }

// ScrapeObs returns the node's observability snapshot directly (no wire
// round trip — the in-process fast path the middleware uses when the node
// handle lives in the same process).
func (n *Node) ScrapeObs(since uint64, tenant string, maxEvents int) (*obs.RemoteSnapshot, error) {
	return n.scope.Snapshot(since, tenant, maxEvents), nil
}

// BackendName implements the middleware's backend interface.
func (n *Node) BackendName() string { return n.Name }

// CreateDatabase provisions a tenant database on this node.
func (n *Node) CreateDatabase(db string) error { return n.Engine.CreateDatabase(db) }

// DropDatabase removes a tenant database from this node.
func (n *Node) DropDatabase(db string) error { return n.Engine.DropDatabase(db) }

// Remote is a handle to a DBMS node in another process, addressed over the
// wire protocol. Control operations go through the node's SysDB session.
type Remote struct {
	Name string
	Addr string
	// RTT is the simulated round trip added to every operation.
	RTT time.Duration
}

// BackendName implements the middleware's backend interface.
func (r *Remote) BackendName() string { return r.Name }

// Connect opens a client session on the named database of the remote node.
func (r *Remote) Connect(db string) (*wire.Client, error) {
	return wire.DialRTT(r.Addr, db, r.RTT)
}

// CreateDatabase provisions a tenant database via the node's control
// session.
func (r *Remote) CreateDatabase(db string) error {
	return r.controlExec("CREATE DATABASE " + db)
}

// DropDatabase removes a tenant database via the node's control session.
func (r *Remote) DropDatabase(db string) error {
	return r.controlExec("DROP DATABASE " + db)
}

func (r *Remote) controlExec(cmd string) error {
	c, err := r.Connect(SysDB)
	if err != nil {
		return err
	}
	defer c.Close()
	_, err = c.Exec(cmd)
	return err
}

// ScrapeObs pulls the remote node's observability snapshot over the wire
// through a short-lived control session.
func (r *Remote) ScrapeObs(since uint64, tenant string, maxEvents int) (*obs.RemoteSnapshot, error) {
	c, err := r.Connect(SysDB)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Scrape(since, tenant, maxEvents)
}

// Addr returns the node's wire address.
func (n *Node) Addr() string { return n.srv.Addr() }

// RTT returns the node's configured round-trip time.
func (n *Node) RTT() time.Duration { return n.rtt }

// Connect opens a client session on the named tenant database of this node,
// with the node's RTT applied.
func (n *Node) Connect(db string) (*wire.Client, error) {
	return wire.DialRTT(n.Addr(), db, n.rtt)
}

// Close shuts down the wire server and the engine.
func (n *Node) Close() {
	n.srv.Close()
	n.Engine.Close()
}

// Crash simulates kill -9: connections drop and the engine loses its
// unsynced WAL tail. A durable node restarted on the same data dir (a fresh
// NewNode with the same Engine.DataDir) then recovers exactly the committed
// prefix; for an in-memory node a crash loses everything, as before. The
// engine dies first: an in-process caller (a rollback's DropDatabase) that
// reacts to the dropped connections must not find a log that still commits.
func (n *Node) Crash() {
	n.Engine.Crash()
	n.srv.Close()
}

// Cluster is a named set of nodes.
type Cluster struct {
	mu    sync.RWMutex
	nodes map[string]*Node
}

// New returns an empty cluster.
func New() *Cluster {
	return &Cluster{nodes: make(map[string]*Node)}
}

// AddNode creates and registers a node.
func (c *Cluster) AddNode(name string, opts NodeOptions) (*Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[name]; ok {
		return nil, fmt.Errorf("cluster: node %q already exists", name)
	}
	n, err := NewNode(name, opts)
	if err != nil {
		return nil, err
	}
	c.nodes[name] = n
	return n, nil
}

// Node returns a registered node.
func (c *Cluster) Node(name string) (*Node, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n, ok := c.nodes[name]
	return n, ok
}

// Names lists node names in sorted order.
func (c *Cluster) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.nodes))
	for n := range c.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Close shuts every node down.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		n.Close()
	}
	c.nodes = make(map[string]*Node)
}
