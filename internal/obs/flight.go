package obs

import (
	"sync"
	"time"
)

// Bundle is one flight-recorder capture: the diagnostic state frozen at
// the moment a migration died (rollback, watchdog abort, SSL overflow).
// It is deliberately generic — fields, events, metrics, samples — so the
// recorder lives below internal/core and the core formats its Report and
// flow/fault state into Detail without an import cycle.
type Bundle struct {
	ID      int       `json:"id"`
	At      time.Time `json:"at"`
	Tenant  string    `json:"tenant"`
	Reason  string    `json:"reason"`
	Detail  []Field   `json:"detail,omitempty"`
	Events  []Event   `json:"events,omitempty"`
	Metrics []Metric  `json:"metrics,omitempty"`
	History []Sample  `json:"history,omitempty"`
}

// DefaultFlightCap bounds the package-level recorder: 16 bundles is
// several distinct incidents' worth while keeping worst-case memory small
// (each bundle holds one event tail + one registry snapshot).
const DefaultFlightCap = 16

// Flight is the process-wide flight recorder the migration rollback path
// captures into and the admin BUNDLE command reads.
var Flight = NewFlightRecorder(DefaultFlightCap)

// FlightRecorder is a bounded in-memory store of diagnostic bundles:
// oldest bundles are evicted FIFO past the cap, IDs grow monotonically
// from 1 so an evicted bundle's ID is never reused.
type FlightRecorder struct {
	mu      sync.Mutex
	cap     int
	nextID  int
	bundles []Bundle
}

// NewFlightRecorder creates a recorder holding at most n bundles
// (minimum 1).
func NewFlightRecorder(n int) *FlightRecorder {
	if n < 1 {
		n = 1
	}
	return &FlightRecorder{cap: n, nextID: 1}
}

// Capture stores one bundle, assigning its ID and timestamp, and returns
// the ID.
func (f *FlightRecorder) Capture(b Bundle) int {
	f.mu.Lock()
	b.ID = f.nextID
	f.nextID++
	if b.At.IsZero() {
		b.At = time.Now()
	}
	f.bundles = append(f.bundles, b)
	if len(f.bundles) > f.cap {
		f.bundles = append(f.bundles[:0], f.bundles[len(f.bundles)-f.cap:]...)
	}
	f.mu.Unlock()
	return b.ID
}

// Bundles copies out the retained bundles, oldest first.
func (f *FlightRecorder) Bundles() []Bundle {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Bundle(nil), f.bundles...)
}

// Get returns the bundle with the given ID, if still retained.
func (f *FlightRecorder) Get(id int) (Bundle, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, b := range f.bundles {
		if b.ID == id {
			return b, true
		}
	}
	return Bundle{}, false
}

// Len reports how many bundles are retained.
func (f *FlightRecorder) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.bundles)
}

// Reset drops every retained bundle (tests; IDs keep growing).
func (f *FlightRecorder) Reset() {
	f.mu.Lock()
	f.bundles = nil
	f.mu.Unlock()
}
