package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// fresh gives each test its own registry so names never collide across
// tests (Default is reserved for the real subsystems).
func fresh() *Registry { return NewRegistry() }

func TestCounterConcurrent(t *testing.T) {
	r := fresh()
	c := r.NewCounter("test.ops", "")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value = %d, want %d", got, workers*per)
	}
}

func TestGauge(t *testing.T) {
	r := fresh()
	g := r.NewGauge("test.depth", "")
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Dec()
	if got := g.Value(); got != 6 {
		t.Fatalf("Value = %d, want 6", got)
	}
	f := r.NewGaugeFunc("test.fn", "", func() int64 { return 42 })
	if f.Value() != 42 {
		t.Fatal("GaugeFunc value")
	}
}

func TestHistogram(t *testing.T) {
	r := fresh()
	h := r.NewHistogram("test.sizes", "", SizeBuckets())
	for _, v := range []int64{1, 1, 2, 3, 1024, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 || s.Max != 5000 || s.Sum != 1+1+2+3+1024+5000 {
		t.Fatalf("snapshot = %+v", s)
	}
	// Bounds 1,2,4,...: value 1 -> bucket 0, 2 -> bucket 1, 3 -> bucket 2
	// (bound 4), 1024 -> last real bucket, 5000 -> overflow.
	if s.Counts[0] != 2 || s.Counts[1] != 1 || s.Counts[2] != 1 {
		t.Fatalf("bucket counts = %v", s.Counts)
	}
	if s.Counts[len(s.Counts)-1] != 1 {
		t.Fatalf("overflow count = %v", s.Counts)
	}
	if q := s.Quantile(0.5); q != 2 {
		t.Fatalf("p50 = %d, want 2", q)
	}
	if q := s.Quantile(1.0); q != 5000 {
		t.Fatalf("p100 = %d, want overflow max", q)
	}
	if s.Mean() == 0 {
		t.Fatal("mean")
	}
}

func TestHistogramBoundary(t *testing.T) {
	r := fresh()
	h := r.NewHistogram("test.bound", "", []int64{10, 20})
	h.Observe(10) // exactly on a bound: inclusive upper -> bucket 0
	h.Observe(11)
	h.Observe(21)
	s := h.Snapshot()
	if s.Counts[0] != 1 || s.Counts[1] != 1 || s.Counts[2] != 1 {
		t.Fatalf("counts = %v", s.Counts)
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	r := fresh()
	r.NewCounter("z.last", "")
	r.NewGauge("a.first", "")
	r.NewHistogram("m.mid", "", SizeBuckets())
	snap := r.Snapshot()
	if len(snap) != 3 || snap[0].Name != "a.first" || snap[1].Name != "m.mid" || snap[2].Name != "z.last" {
		t.Fatalf("snapshot order = %+v", snap)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := fresh()
	r.NewCounter("dup", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewCounter("dup", "")
}

func TestTracerRingAndSince(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 40; i++ {
		tr.Emit("shop", "tick", F("i", i))
	}
	last := tr.Last(8)
	if len(last) != 8 {
		t.Fatalf("Last(8) returned %d events", len(last))
	}
	if last[0].Seq != 32 || last[7].Seq != 39 {
		t.Fatalf("Last window = [%d,%d]", last[0].Seq, last[7].Seq)
	}
	// The ring holds 16; asking since an evicted seq returns what remains.
	since := tr.Since(0, "")
	if len(since) != 16 || since[0].Seq != 24 {
		t.Fatalf("Since(0) = %d events from %d", len(since), since[0].Seq)
	}
	// Tenant filter.
	tr.Emit("other", "tick")
	if got := tr.Since(0, "other"); len(got) != 1 || got[0].Tenant != "other" {
		t.Fatalf("tenant filter = %+v", got)
	}
}

func TestTracerSpan(t *testing.T) {
	tr := NewTracer(16)
	sp := tr.Start("shop", "step2.restore", F("slaves", 2))
	time.Sleep(time.Millisecond)
	sp.End(F("rows", 100))
	evs := tr.Last(2)
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Name != "step2.restore.begin" || evs[1].Name != "step2.restore" {
		t.Fatalf("span names = %q %q", evs[0].Name, evs[1].Name)
	}
	if evs[1].Dur <= 0 {
		t.Fatal("span end has no duration")
	}
	if !strings.Contains(evs[1].String(), "rows=100") {
		t.Fatalf("String() = %q", evs[1].String())
	}
}

func TestEncoders(t *testing.T) {
	r := fresh()
	c := r.NewCounter("enc.ops", "operations")
	c.Add(3)
	h := r.NewHistogram("enc.lat", "", DurationBuckets())
	h.ObserveDuration(250 * time.Microsecond)
	tr := NewTracer(16)
	tr.Emit("shop", "step1.dump.begin")

	var text bytes.Buffer
	if err := WriteText(&text, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "enc.ops") || !strings.Contains(text.String(), "3") {
		t.Fatalf("text = %q", text.String())
	}
	if !strings.Contains(text.String(), "count=1") {
		t.Fatalf("histogram digest missing: %q", text.String())
	}

	var js bytes.Buffer
	if err := WriteJSON(&js, r.Snapshot(), tr.Last(10)); err != nil {
		t.Fatal(err)
	}
	var snap DebugSnapshot
	if err := json.Unmarshal(js.Bytes(), &snap); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(snap.Metrics) != 2 || len(snap.Events) != 1 {
		t.Fatalf("decoded snapshot: %d metrics, %d events", len(snap.Metrics), len(snap.Events))
	}
	if snap.Events[0].Name != "step1.dump.begin" {
		t.Fatalf("decoded event = %+v", snap.Events[0])
	}

	var evText bytes.Buffer
	if err := WriteEventsText(&evText, tr.Last(10)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(evText.String(), "step1.dump.begin") {
		t.Fatalf("events text = %q", evText.String())
	}
}

// errWriter fails after n bytes so encoder error paths are covered.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, io.ErrClosedPipe // any sentinel error
	}
	w.n -= len(p)
	return len(p), nil
}

func TestEncoderErrorsPropagate(t *testing.T) {
	r := fresh()
	r.NewCounter("e.one", "")
	r.NewCounter("e.two", "")
	if err := WriteText(&errWriter{n: 1}, r.Snapshot()); err == nil {
		t.Fatal("WriteText swallowed the writer error")
	}
	tr := NewTracer(16)
	tr.Emit("x", "a")
	tr.Emit("x", "b")
	if err := WriteEventsText(&errWriter{n: 1}, tr.Last(10)); err == nil {
		t.Fatal("WriteEventsText swallowed the writer error")
	}
	if err := WriteJSON(&errWriter{}, r.Snapshot(), nil); err == nil {
		t.Fatal("WriteJSON swallowed the writer error")
	}
}
