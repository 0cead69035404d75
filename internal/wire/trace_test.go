package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"madeus/internal/obs"
)

// TestTracedPayloadRoundTrip pins the traced-frame and scrape encodings.
func TestTracedPayloadRoundTrip(t *testing.T) {
	tc := &TraceContext{Tenant: "shop", MTS: 42, Span: 7}
	sql := "INSERT INTO t (id) VALUES (1)"
	var frame bytes.Buffer
	w := bufio.NewWriter(&frame)
	if err := writeQuery(w, MsgQueryTraced, tc, sql); err != nil || w.Flush() != nil {
		t.Fatal(err)
	}
	var rbuf []byte
	typ, query, err := readMsg(bufio.NewReader(&frame), &rbuf)
	if err != nil || typ != MsgQueryTraced {
		t.Fatalf("readMsg = %q, %v", typ, err)
	}
	got, gotSQL, err := decodeTraced(query)
	if err != nil {
		t.Fatal(err)
	}
	if got != *tc || string(gotSQL) != sql {
		t.Fatalf("round trip = %+v %q, want %+v %q", got, gotSQL, *tc, sql)
	}

	if _, _, err := decodeTraced([]byte{1, 2, 3}); err == nil {
		t.Fatal("short traced frame must not decode")
	}

	since, max, tenant, err := decodeScrapeReq(encodeScrapeReq(99, 128, "shop"))
	if err != nil {
		t.Fatal(err)
	}
	if since != 99 || max != 128 || tenant != "shop" {
		t.Fatalf("scrape req round trip = %d %d %q", since, max, tenant)
	}

	snap := &obs.RemoteSnapshot{Instance: "node0", NextSeq: 5,
		Events: []obs.Event{{Seq: 4, Tenant: "shop", Name: "wire.exec"}}}
	payload, err := encodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	if back.Instance != "node0" || back.NextSeq != 5 || len(back.Events) != 1 {
		t.Fatalf("snapshot round trip = %+v", back)
	}
	if _, err := decodeSnapshot([]byte("{")); err == nil {
		t.Fatal("bad snapshot JSON must not decode")
	}
}

// TestTracedExecStampsServerEvents drives traced queries end to end: a
// client carrying a TraceContext makes the server emit per-operation events
// into its scope's ring, tagged with the migration's MTS and span.
func TestTracedExecStampsServerEvents(t *testing.T) {
	_, srv := newServer(t)
	scope := obs.NewScope("nodeX")
	srv.SetScope(scope)

	c, err := Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Plain exec first: no context, no events.
	if _, err := c.Exec("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if got := scope.Tracer.Since(0, ""); len(got) != 0 {
		t.Fatalf("untraced exec emitted %d events: %v", len(got), got)
	}

	c.SetTraceContext(&TraceContext{Tenant: "shop", MTS: 42, Span: 7})
	if _, err := c.Exec("INSERT INTO t (id) VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("SELECT * FROM t"); err != nil {
		t.Fatal(err)
	}

	events := scope.Tracer.Since(0, "shop")
	if len(events) != 2 {
		t.Fatalf("got %d traced events, want 2: %v", len(events), events)
	}
	for _, e := range events {
		if e.Name != "wire.exec" {
			t.Fatalf("event name = %q, want wire.exec", e.Name)
		}
		fields := map[string]string{}
		for _, f := range e.Fields {
			fields[f.Key] = f.Value
		}
		if fields["mts"] != "42" || fields["span"] != "7" {
			t.Fatalf("event fields = %v, want mts=42 span=7", e.Fields)
		}
		if e.Dur <= 0 {
			t.Fatalf("traced event has no duration: %v", e)
		}
	}

	// Clearing the context reverts to plain frames.
	c.SetTraceContext(nil)
	if _, err := c.Exec("SELECT * FROM t"); err != nil {
		t.Fatal(err)
	}
	if got := scope.Tracer.Since(0, "shop"); len(got) != 2 {
		t.Fatalf("cleared context still emitted events: %v", got)
	}
}

// TestClientScrape exercises the remote-scrape op: the middleware-side pull
// of a node's registry snapshot and event tail.
func TestClientScrape(t *testing.T) {
	_, srv := newServer(t)
	scope := obs.NewScope("nodeZ")
	srv.SetScope(scope)
	scope.Tracer.Emit("shop", "wire.exec")
	scope.Tracer.Emit("other", "wire.exec")
	scope.Tracer.Emit("shop", "wire.stream")
	scope.Registry.NewCounter("node.ops", "ops served").Add(5)
	lat := scope.Registry.NewHistogram("node.lat", "", []int64{10, 20})
	for _, v := range []int64{5, 15, 25} {
		lat.Observe(v)
	}

	c, err := Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	snap, err := c.Scrape(0, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Instance != "nodeZ" {
		t.Fatalf("Instance = %q, want nodeZ", snap.Instance)
	}
	if snap.NextSeq != 3 || len(snap.Events) != 3 {
		t.Fatalf("NextSeq=%d events=%d, want 3 and 3", snap.NextSeq, len(snap.Events))
	}
	if snap.Now.IsZero() {
		t.Fatal("snapshot carries no clock anchor")
	}
	// The scope's registry rides along intact: counter value, histogram
	// bounds, bucket counts, sum and count.
	if want := scope.Registry.Snapshot(); !reflect.DeepEqual(snap.Metrics, want) {
		t.Fatalf("scraped metrics = %+v, want %+v", snap.Metrics, want)
	}
	if len(snap.Metrics) != 2 || snap.Metrics[1].Name != "node.ops" || snap.Metrics[1].Value != 5 {
		t.Fatalf("scraped counter = %+v", snap.Metrics)
	}
	if h := snap.Metrics[0].Hist; h == nil || !reflect.DeepEqual(h.Bounds, []int64{10, 20}) ||
		!reflect.DeepEqual(h.Counts, []uint64{1, 1, 1}) || h.Sum != 45 || h.Count != 3 {
		t.Fatalf("scraped histogram = %+v", snap.Metrics[0].Hist)
	}

	// Tenant filter and bookmark.
	snap, err = c.Scrape(0, "shop", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Events) != 2 {
		t.Fatalf("tenant-filtered scrape got %d events, want 2", len(snap.Events))
	}
	snap, err = c.Scrape(snap.NextSeq, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Events) != 0 {
		t.Fatalf("bookmark scrape got %d events, want 0", len(snap.Events))
	}
}

// TestScrapeMaxEvents caps the returned tail.
func TestScrapeMaxEvents(t *testing.T) {
	_, srv := newServer(t)
	scope := obs.NewScope("nodeW")
	srv.SetScope(scope)
	for i := 0; i < 10; i++ {
		scope.Tracer.Emit("shop", "wire.exec")
	}
	c, err := Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	snap, err := c.Scrape(0, "", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Events) != 4 {
		t.Fatalf("capped scrape got %d events, want 4", len(snap.Events))
	}
	if snap.Events[len(snap.Events)-1].Seq != 9 {
		t.Fatalf("cap must keep the newest events, got tail seq %d", snap.Events[len(snap.Events)-1].Seq)
	}
}

// TestMalformedTracedFrame: a garbage trace prefix is rejected with a
// server error and a hang-up, not a stall or a crash — on both traced
// query shapes.
func TestMalformedTracedFrame(t *testing.T) {
	for _, typ := range []byte{MsgQueryTraced, MsgQueryStreamTraced} {
		t.Run(string(typ), func(t *testing.T) {
			_, srv := newServer(t)
			c, err := Dial(srv.Addr(), "db")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := writeMsg(c.bw, typ, []byte{1, 2}); err != nil {
				t.Fatal(err)
			}
			if err := c.bw.Flush(); err != nil {
				t.Fatal(err)
			}
			got, payload, err := readMsg(c.br, &c.rbuf)
			if err != nil {
				t.Fatal(err)
			}
			if got != MsgError {
				t.Fatalf("got frame %c, want MsgError", got)
			}
			if !strings.Contains(string(payload), "traced") {
				t.Fatalf("error payload %q does not mention the traced frame", payload)
			}
			if _, _, err := readMsg(c.br, &c.rbuf); err == nil {
				t.Fatal("server kept the session open after a malformed trace prefix")
			}
		})
	}
}

// TestAllQueryShapes sends the same statement as each of the four query
// shapes (plain/stream × untraced/traced) and checks what distinguishes
// them and nothing else: the stream shapes deliver the dump in chunks and
// the plain shapes in one result, the traced shapes stamp one server event
// (named for the shape) and the untraced shapes none, and all four carry
// the same statements.
func TestAllQueryShapes(t *testing.T) {
	_, srv := newServer(t)
	scope := obs.NewScope("shapes")
	srv.SetScope(scope)
	c, err := Dial(srv.Addr(), "db")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Exec(fmt.Sprintf("INSERT INTO t (id) VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	full, err := c.Exec("DUMP STREAM")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(full.Rows))
	for i, row := range full.Rows {
		want[i] = row[0].Str
	}

	for _, tc := range []struct {
		name   string
		stream bool
		trace  *TraceContext
		event  string
	}{
		{"plain", false, nil, ""},
		{"plain-traced", false, &TraceContext{Tenant: "shop", MTS: 9, Span: 1}, "wire.exec"},
		{"stream", true, nil, ""},
		{"stream-traced", true, &TraceContext{Tenant: "shop", MTS: 9, Span: 2}, "wire.stream"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mark := scope.Tracer.Seq()
			c.SetTraceContext(tc.trace)
			defer c.SetTraceContext(nil)

			var got []string
			chunks := 0
			if tc.stream {
				res, err := c.ExecStream("DUMP STREAM 1", func(_ uint32, stmts []string) error {
					chunks++
					got = append(got, stmts...)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) != 0 {
					t.Errorf("stream trailer carried %d rows, want the payload in chunks", len(res.Rows))
				}
			} else {
				res, err := c.Exec("DUMP STREAM 1")
				if err != nil {
					t.Fatal(err)
				}
				for _, row := range res.Rows {
					got = append(got, row[0].Str)
				}
			}
			if tc.stream != (chunks > 0) {
				t.Errorf("stream=%v but %d chunks arrived", tc.stream, chunks)
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("statements = %q, want %q", got, want)
			}

			events := scope.Tracer.Since(mark, "")
			if tc.trace == nil {
				if len(events) != 0 {
					t.Fatalf("untraced query emitted %v", events)
				}
				return
			}
			if len(events) != 1 || events[0].Name != tc.event || events[0].Tenant != tc.trace.Tenant {
				t.Fatalf("events = %v, want one %s for tenant %s", events, tc.event, tc.trace.Tenant)
			}
		})
	}
}
