package obs

import (
	"fmt"
	"sync"
	"time"
)

// Field is one key/value pair on an event. Values are formatted at emit
// time so events hold no live references into the subsystems they describe.
type Field struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// F builds a field from any value.
func F(key string, v any) Field {
	switch x := v.(type) {
	case string:
		return Field{Key: key, Value: x}
	case time.Duration:
		return Field{Key: key, Value: x.Round(time.Microsecond).String()}
	case error:
		return Field{Key: key, Value: x.Error()}
	}
	return Field{Key: key, Value: fmt.Sprint(v)}
}

// Event is one tracer record: a named point (or completed span) in a
// tenant's migration lifecycle.
type Event struct {
	Seq    uint64        `json:"seq"`
	At     time.Time     `json:"at"`
	Tenant string        `json:"tenant,omitempty"`
	Name   string        `json:"name"`
	Dur    time.Duration `json:"dur,omitempty"` // set for span-end events
	Fields []Field       `json:"fields,omitempty"`
}

// String renders the event as one log-style line.
func (e Event) String() string {
	s := fmt.Sprintf("#%d %s %s %s", e.Seq, e.At.Format("15:04:05.000"), e.Tenant, e.Name)
	if e.Dur > 0 {
		s += fmt.Sprintf(" dur=%v", e.Dur.Round(time.Microsecond))
	}
	for _, f := range e.Fields {
		s += fmt.Sprintf(" %s=%s", f.Key, f.Value)
	}
	return s
}

// Tracer records events into a fixed-size ring. Emission is a short
// critical section (no allocation beyond the event's own fields, no I/O);
// readers copy out under the same lock.
type Tracer struct {
	mu   sync.Mutex
	ring []Event
	next uint64 // total events ever emitted; ring[next%len] is the oldest slot
}

// DefaultTracerCap is the ring size of the package-level tracer: enough for
// several full migrations' lifecycles (a migration emits tens of events
// plus periodic samples).
const DefaultTracerCap = 4096

// Trace is the process-wide tracer, the one the admin EVENTS command and
// the HTTP endpoint read.
var Trace = NewTracer(DefaultTracerCap)

// NewTracer creates a tracer with a ring of n events (minimum 16).
func NewTracer(n int) *Tracer {
	if n < 16 {
		n = 16
	}
	return &Tracer{ring: make([]Event, n)}
}

// Emit records one event.
func (t *Tracer) Emit(tenant, name string, fields ...Field) {
	t.emit(Event{At: time.Now(), Tenant: tenant, Name: name, Fields: fields})
}

func (t *Tracer) emit(e Event) {
	t.mu.Lock()
	e.Seq = t.next
	t.ring[t.next%uint64(len(t.ring))] = e
	t.next++
	t.mu.Unlock()
}

// EmitDur records one completed-span event whose duration was measured
// inline by the caller (e.g. a wire server timing a traced query) rather
// than through Start/End.
func (t *Tracer) EmitDur(tenant, name string, dur time.Duration, fields ...Field) {
	t.emit(Event{At: time.Now(), Tenant: tenant, Name: name, Dur: dur, Fields: fields})
}

// Span is an in-progress phase measurement started by Start.
type Span struct {
	tr     *Tracer
	tenant string
	name   string
	begin  time.Time
}

// Start emits "<name>.begin" and returns a span whose End emits "<name>"
// with the elapsed duration. Spans mark the migration steps (step1.dump,
// step2.restore, ...); the pair lets a tail of the event stream show both
// when a phase started and what it cost.
func (t *Tracer) Start(tenant, name string, fields ...Field) *Span {
	t.Emit(tenant, name+".begin", fields...)
	return &Span{tr: t, tenant: tenant, name: name, begin: time.Now()}
}

// End completes the span.
func (s *Span) End(fields ...Field) {
	s.tr.emit(Event{
		At:     time.Now(),
		Tenant: s.tenant,
		Name:   s.name,
		Dur:    time.Since(s.begin),
		Fields: fields,
	})
}

// Seq returns the sequence number the next emitted event will get. Use it
// to bookmark a window: Since(bookmark) returns everything emitted after.
func (t *Tracer) Seq() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Last returns the most recent n events, oldest first.
func (t *Tracer) Last(n int) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.copyLocked(n)
}

// Since returns events with Seq >= seq still present in the ring, oldest
// first, optionally filtered by tenant ("" matches all).
func (t *Tracer) Since(seq uint64, tenant string) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	all := t.copyLocked(len(t.ring))
	out := make([]Event, 0, len(all))
	for _, e := range all {
		if e.Seq >= seq && (tenant == "" || e.Tenant == tenant) {
			out = append(out, e)
		}
	}
	return out
}

// copyLocked returns up to n most recent events, oldest first. Caller holds
// t.mu.
func (t *Tracer) copyLocked(n int) []Event {
	size := uint64(len(t.ring))
	have := t.next
	if have > size {
		have = size
	}
	if uint64(n) < have {
		have = uint64(n)
	}
	out := make([]Event, 0, have)
	for i := t.next - have; i < t.next; i++ {
		out = append(out, t.ring[i%size])
	}
	return out
}
