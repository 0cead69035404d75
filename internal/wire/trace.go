package wire

import (
	"encoding/json"
	"fmt"

	"madeus/internal/obs"
)

// TraceContext identifies the middleware-side migration a wire operation
// belongs to. When a client carries one, Exec/ExecStream switch to the
// traced frame types and the receiving server stamps its per-operation
// trace events with these fields — which is what lets `madeusctl trace`
// join middleware Step 1–4 spans with the dbnode-side wire and WAL work
// they caused, across process boundaries, keyed by the migration's MTS.
type TraceContext struct {
	Tenant string // migrating tenant (dbnode-side events adopt it)
	MTS    uint64 // migration timestamp: MLC at snapshot (Algorithm 3 Step 1)
	Span   uint64 // middleware-assigned id for this migration attempt
}

// appendTraceContext appends a traced query's context, the prefix of its
// payload, to dst: the fixed-width fields first so a decoder can reject
// short frames before touching the SQL, which follows the context.
func appendTraceContext(dst []byte, tc *TraceContext) []byte {
	e := encoder{buf: dst}
	e.u64(tc.MTS)
	e.u64(tc.Span)
	e.str(tc.Tenant)
	return e.buf
}

// decodeTraced splits a traced-query payload into its context and the SQL
// bytes, a subslice of payload that the caller converts once.
func decodeTraced(payload []byte) (TraceContext, []byte, error) {
	d := decoder{buf: payload}
	var tc TraceContext
	var err error
	if tc.MTS, err = d.u64(); err != nil {
		return tc, nil, fmt.Errorf("wire: short traced frame: %w", err)
	}
	if tc.Span, err = d.u64(); err != nil {
		return tc, nil, fmt.Errorf("wire: short traced frame: %w", err)
	}
	if tc.Tenant, err = d.str(); err != nil {
		return tc, nil, fmt.Errorf("wire: short traced frame: %w", err)
	}
	return tc, payload[d.off:], nil
}

// encodeScrapeReq builds a MsgObsScrape payload.
func encodeScrapeReq(since uint64, maxEvents int, tenant string) []byte {
	var e encoder
	e.u64(since)
	e.u32(uint32(maxEvents))
	e.str(tenant)
	return e.buf
}

// decodeScrapeReq parses a MsgObsScrape payload.
func decodeScrapeReq(payload []byte) (since uint64, maxEvents int, tenant string, err error) {
	d := decoder{buf: payload}
	if since, err = d.u64(); err != nil {
		return 0, 0, "", fmt.Errorf("wire: short scrape request: %w", err)
	}
	max32, err := d.u32()
	if err != nil {
		return 0, 0, "", fmt.Errorf("wire: short scrape request: %w", err)
	}
	if tenant, err = d.str(); err != nil {
		return 0, 0, "", fmt.Errorf("wire: short scrape request: %w", err)
	}
	return since, int(max32), tenant, nil
}

// encodeSnapshot serializes a scrape reply. JSON rather than the binary
// value encoding: the snapshot is diagnostic data read by humans and the
// middleware's timeline merger, not a hot-path payload, and JSON keeps it
// self-describing as the metric set evolves.
func encodeSnapshot(snap *obs.RemoteSnapshot) ([]byte, error) {
	return json.Marshal(snap)
}

// decodeSnapshot parses a scrape reply.
func decodeSnapshot(payload []byte) (*obs.RemoteSnapshot, error) {
	var snap obs.RemoteSnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("wire: bad snapshot payload: %w", err)
	}
	return &snap, nil
}
