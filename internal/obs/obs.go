// Package obs is the middleware's observability layer: cheap process-wide
// counters, gauges, and bounded histograms in a registry, plus a structured
// event tracer that records the migration lifecycle (Steps 1-4, per-slave
// propagation progress, the switch-over suspension window) as timestamped
// events.
//
// Everything here is stdlib-only and built to stay off the hot path:
//
//   - Counters are sharded across padded cells so concurrent workers do not
//     contend on one cache line; an Add is a single uncontended atomic.
//   - The tracer writes into a fixed-size ring; it never allocates beyond
//     the event's own fields and never blocks.
//
// The layer is always on: it is cheap enough to leave on in production,
// and a layer with an off state would have to keep paired gauge moves
// (Inc/Dec around a resource's lifetime) consistent across the switch.
// An Emit builds its field slice, so event sites sit on migration and fault
// paths, never on the per-statement relay path.
//
// Snapshots are exposed three ways: the admin channel's STATS and EVENTS
// commands (internal/core), an optional /debug/madeus HTTP endpoint
// (cmd/madeusd -debug), and the migration Report timeline that
// cmd/benchrunner prints.
package obs
