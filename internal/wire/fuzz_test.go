package wire

import (
	"bytes"
	"testing"
	"unsafe"
)

// FuzzDecodeResult checks the decoder every reply passes through: it never
// panics on any payload, and a payload it accepts re-encodes to one that
// decodes to the same result. The middleware forwards replies verbatim, so
// this is what makes the relay observationally identical to decoding and
// re-encoding them. The seed corpus (testdata/fuzz/FuzzDecodeResult) holds
// real engine results: NULL, INT, FLOAT, TEXT and BOOL values, an empty
// result, and the COMMIT/ROLLBACK tags.
func FuzzDecodeResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		res, err := DecodeResult(payload)
		if err != nil {
			return
		}
		again, err := DecodeResult(AppendResult(nil, res))
		if err != nil {
			t.Fatalf("re-encoded result does not decode: %v", err)
		}
		if !resultEqual(res, again) {
			t.Fatalf("re-encoded result decodes differently:\n got %+v\nwant %+v", again, res)
		}
	})
}

// FuzzDecodeStreamChunk checks the decoder every restored chunk passes
// through on its way from a migration's source to its slaves: it never
// panics on any payload, and a payload it accepts re-encodes to the same
// bytes, so a chunk decodes to exactly the statements that were sent. The
// statements are the payload's own bytes, not copies: a restore chunk is
// forwarded from the frame it arrived in. The seed corpus
// (testdata/fuzz/FuzzDecodeStreamChunk) holds real DUMP STREAM chunks: a
// schema prologue, a row statement of two sections holding every value
// kind, INSERT batches of every value kind, signed and exponent numbers and
// quoted text among them, and an empty chunk.
func FuzzDecodeStreamChunk(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		seq, stmts, err := DecodeStreamChunk(payload)
		if err != nil {
			return
		}
		if again := EncodeStreamChunk(seq, stmts); !bytes.Equal(again, payload) {
			t.Fatalf("chunk %d of %d statements re-encodes differently:\n got %q\nwant %q", seq, len(stmts), again, payload)
		}
		base := uintptr(unsafe.Pointer(unsafe.SliceData(payload)))
		for i, s := range stmts {
			if at := uintptr(unsafe.Pointer(unsafe.StringData(s))); len(s) > 0 && (at < base || at+uintptr(len(s)) > base+uintptr(len(payload))) {
				t.Fatalf("statement %d of chunk %d is a copy, not the payload's bytes", i, seq)
			}
		}
	})
}

// FuzzDecodeTraced checks the decoder every traced query passes through at
// a node: it never panics on any payload, and a payload it accepts
// re-encodes to the same bytes, so the node runs exactly the SQL the
// middleware sent and stamps its events with exactly that migration's
// context. The seed corpus (testdata/fuzz/FuzzDecodeTraced) holds real
// traced frames of migrations: the dump's DUMP STREAM, the restore's
// CREATE TABLE, INSERT batches, BEGIN and COMMIT, and Step-3 replay's
// reads and writes.
func FuzzDecodeTraced(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		tc, sql, err := decodeTraced(payload)
		if err != nil {
			return
		}
		if again := append(appendTraceContext(nil, &tc), sql...); !bytes.Equal(again, payload) {
			t.Fatalf("traced query %+v %q re-encodes differently:\n got %q\nwant %q", tc, sql, again, payload)
		}
	})
}
