package obs

import (
	"sync/atomic"
	"unsafe"
)

// numCells is the counter stripe width. Power of two so the cell index is a
// mask, sized past the core counts this middleware realistically runs on.
const numCells = 16

// cell is one counter stripe, padded so adjacent cells never share a cache
// line (the classic false-sharing fix; 64-byte lines on every platform we
// target).
type cell struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing, striped counter. The zero value is
// NOT usable; obtain one from a Registry (or the package-level helpers) so
// it is named and snapshotted.
type Counter struct {
	name  string
	help  string
	cells [numCells]cell
}

// cellIndex picks a stripe for the calling goroutine. Goroutine stacks are
// distinct allocations, so the address of a local spreads callers across
// cells; shifting off the low bits drops the within-frame offset. The
// uintptr conversion keeps b on the stack (nothing retains a pointer).
func cellIndex() uint {
	var b byte
	return uint(uintptr(unsafe.Pointer(&b))>>10) & (numCells - 1)
}

// Add increments the counter.
func (c *Counter) Add(n uint64) {
	c.cells[cellIndex()].v.Add(n)
}

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// Value sums the stripes.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.cells {
		total += c.cells[i].v.Load()
	}
	return total
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Gauge is an instantaneous value (pool depth, active connections). Writes
// are single atomics; sharding buys nothing for a last-writer-wins value.
type Gauge struct {
	name string
	help string
	v    atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
}

// Add moves the gauge by delta (use for inc/dec pairs around a resource's
// lifetime).
func (g *Gauge) Add(delta int64) {
	g.v.Add(delta)
}

// Inc is Add(1).
func (g *Gauge) Inc() { g.Add(1) }

// Dec is Add(-1).
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// GaugeFunc is a gauge whose value is computed at snapshot time (e.g. a
// queue length already maintained elsewhere). The callback must be safe to
// invoke from any goroutine.
type GaugeFunc struct {
	name string
	help string
	fn   func() int64
}

// Value invokes the callback.
func (g *GaugeFunc) Value() int64 { return g.fn() }

// Name returns the registered name.
func (g *GaugeFunc) Name() string { return g.name }
