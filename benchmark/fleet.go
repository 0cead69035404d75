package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"madeus/internal/engine"
	"madeus/internal/mvcc"
	"madeus/internal/tpcw"
	"madeus/internal/wire"
)

// nClients is fixed at two: the reference host's two vCPUs behave like one
// core, so more closed-loop clients only measure the scheduler.
const nClients = 2

// traceBlock is the run length, in committed interactions, of the traced
// run's alternating traced and untraced stretches; comparing their rates
// gives trace.overhead_pct inside one process.
const traceBlock = 500

// sample is one committed interaction after warm-up. Times are nanoseconds
// since the fleet's epoch.
type sample struct {
	begin, end int64
	update     bool
}

// mark is the process state at a phase boundary, taken by the client whose
// commit crossed it.
type mark struct {
	at      int64
	mem     runtime.MemStats
	cpu     time.Duration
	counter map[string]int64
}

// fleet is the closed-loop client population and the shared count of
// committed interactions that defines every phase.
type fleet struct {
	sz    sizes
	epoch time.Time
	trace bool
	// atMark, when set, extends a phase mark with layer counters (traced
	// runs only).
	atMark func(*mark)

	committed atomic.Int64
	want      atomic.Int64
	hit       chan struct{}

	clients []*client
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	errs    chan error

	// Written by the client that commits interaction W and W+S, read after
	// stop.
	steadyStart, steadyEnd mark
}

// client is one EB's connection as the EB sees it: an Execer. It watches the
// statement stream the EB generates and does all the accounting, so the
// system under test sees only the generated statements.
type client struct {
	f    *fleet
	conn tpcw.Execer

	begin   int64 // current interaction's BEGIN
	update  bool  // it has written
	buy     bool  // it has inserted into orders
	tracing bool  // it records spans

	steady, mig []sample
	stmts       []string // the open interaction's statements, for a retry
	retried     int      // first-updater-wins aborts, each retried
	failed      int      // interactions that ended in ROLLBACK all the same
	orders      int      // acknowledged BuyConfirm commits

	// Traced runs only.
	spans           []span
	cur             int   // index of the open interaction span
	prevEnd         int64 // end of the previous interaction: gen time starts here
	onTime, offTime int64 // wall time spent in traced and untraced interactions
	onN, offN       int
}

func newFleet(sz sizes, trace bool) *fleet {
	return &fleet{sz: sz, epoch: time.Now(), trace: trace, hit: make(chan struct{}, 1), errs: make(chan error, nClients)}
}

func (f *fleet) now() int64 { return int64(time.Since(f.epoch)) }

// start launches one zero-think EB per connection. They run without pause
// until stop.
func (f *fleet) start(wl workload, seed int64, conns []tpcw.Execer) {
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i, conn := range conns {
		c := &client{f: f, conn: conn, steady: make([]sample, 0, f.sz.S), cur: -1}
		f.clients = append(f.clients, c)
		eb := newEB(wl, i+1, seed*1000+int64(i))
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if err := eb.Run(ctx, c, idleRecorder()); err != nil {
				f.errs <- err
			}
		}()
	}
}

// reach blocks until n interactions have committed (or a client died).
func (f *fleet) reach(n int) error {
	f.want.Store(int64(n))
	for f.committed.Load() < int64(n) {
		select {
		case <-f.hit:
		case err := <-f.errs:
			return fmt.Errorf("client transport error invalidates the run: %w", err)
		}
	}
	return nil
}

// stop ends the clients after their current interaction and waits for them.
func (f *fleet) stop() error {
	f.cancel()
	f.wg.Wait()
	select {
	case err := <-f.errs:
		return fmt.Errorf("client transport error invalidates the run: %w", err)
	default:
		return nil
	}
}

func (f *fleet) takeMark(m *mark, at int64) {
	m.at = at
	runtime.ReadMemStats(&m.mem)
	m.cpu = cpuTime()
	if f.atMark != nil {
		f.atMark(m)
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Exec relays one statement and accounts for it by its first byte: the EB
// sends only BEGIN, SELECT, UPDATE/INSERT/DELETE, COMMIT and ROLLBACK.
func (c *client) Exec(sql string) (*engine.Result, error) {
	switch sql[0] {
	case 'B':
		c.begin = c.f.now()
		c.update, c.buy = false, false
		c.stmts = c.stmts[:0]
		if c.f.trace {
			c.tracing = (c.f.committed.Load()/traceBlock)%2 == 1
			if c.tracing {
				c.openInteraction()
			}
		}
	case 'S', 'C':
	case 'R':
		c.failed++
	default:
		c.update = true
		if strings.HasPrefix(sql, "INSERT INTO orders ") {
			c.buy = true
		}
	}
	c.stmts = append(c.stmts, sql)
	var t0 int64
	if c.tracing {
		t0 = c.f.now()
	}
	res, err := c.conn.Exec(sql)
	for try := 0; try < maxRetries && isConflict(err); try++ {
		res, err = c.retry()
	}
	if c.tracing {
		c.stmtSpan(sql[0], t0, c.f.now())
	}
	switch {
	case sql[0] == 'C' && err == nil && res.Tag == "COMMIT":
		c.committedOne()
	case sql[0] == 'R' && c.f.trace:
		c.closeInteraction(0, c.f.now())
	}
	return res, err
}

// maxRetries bounds the retries of one interaction; past it the EB sees the
// abort and the interaction counts as failed.
const maxRetries = 10

// isConflict reports a first-updater-wins abort: the database's specified
// answer to a write-write conflict under snapshot isolation.
func isConflict(err error) bool {
	var se *wire.ServerError
	return errors.As(err, &se) && strings.Contains(se.Msg, mvcc.ErrSerialization.Error())
}

// retry does what an application does with a serialization abort: roll back
// and run the transaction again from BEGIN, up to the statement that was
// aborted. The EB's statements carry literals or self-relative updates, so
// the replay is the same transaction on a newer snapshot. The interaction's
// latency keeps running from its first BEGIN, so a conflict costs time
// instead of an operation, and no workload has failing operations.
func (c *client) retry() (res *engine.Result, err error) {
	c.retried++
	if _, err := c.conn.Exec("ROLLBACK"); err != nil {
		return nil, err
	}
	for _, s := range c.stmts {
		if res, err = c.conn.Exec(s); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// committedOne counts an acknowledged commit and files it under its phase.
func (c *client) committedOne() {
	f := c.f
	end := f.now()
	n := int(f.committed.Add(1))
	if c.buy {
		c.orders++
	}
	sz := f.sz
	switch {
	case n < sz.W:
	case n == sz.W:
		f.takeMark(&f.steadyStart, end)
	case n <= sz.W+sz.S:
		c.steady = append(c.steady, sample{c.begin, end, c.update})
		if n == sz.W+sz.S {
			f.takeMark(&f.steadyEnd, end)
		}
	default:
		c.mig = append(c.mig, sample{c.begin, end, c.update})
	}
	if f.trace {
		c.closeInteraction(n, end)
	}
	if int64(n) == f.want.Load() {
		select {
		case f.hit <- struct{}{}:
		default: // a stale token is already there; reach re-checks the count
		}
	}
}

// phaseOf names the phase of committed interaction n; 0 stands for an
// interaction that did not commit.
func (z sizes) phaseOf(n int) string {
	switch {
	case n == 0:
		return "rolled-back"
	case n <= z.W:
		return "warmup"
	case n <= z.W+z.S:
		return "steady"
	}
	return "migrating"
}
