package wal

import (
	"bytes"
	"testing"
)

// FuzzReplaySegment checks the decoder every durable log passes through at
// Open and Replay: scanRecords over a segment's bytes never panics, a torn
// or corrupt frame ends the scan at the last good frame, and the records it
// accepts re-encode to exactly the bytes they were read from. The seed
// corpus (testdata/fuzz/FuzzReplaySegment) holds segments an engine wrote
// for DDL, inserts, updates, deletes, commits and rollbacks, and cuts of
// them: torn mid-header and mid-payload, a flipped CRC, a flipped kind
// byte, and a header claiming 64 MiB.
func FuzzReplaySegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, seg []byte) {
		var again []byte
		end, torn, err := scanRecords(bytes.NewReader(seg), func(rec Record, end int64) error {
			again = encodeRecord(again, rec)
			if int64(len(again)) != end {
				t.Fatalf("record %+v ends at %d, re-encoded it ends at %d", rec, end, len(again))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("scan of an in-memory segment failed: %v", err)
		}
		if !bytes.Equal(again, seg[:end]) {
			t.Fatalf("accepted records re-encode differently:\n got %q\nwant %q", again, seg[:end])
		}
		if torn != (end < int64(len(seg))) {
			t.Fatalf("torn = %v with %d of %d bytes accepted", torn, end, len(seg))
		}
	})
}
