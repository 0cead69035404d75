package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// On-disk format. The log file is a sequence of frames:
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload bytes
//
// and a record payload is:
//
//	u64 LSN | u64 TxnID | u8 kind |
//	u32 len + bytes (DB) | u32 len + bytes (Table) | u32 len + bytes (Data)
//
// All integers are little-endian. The frame layer is deliberately dumb —
// no escape sequences, no compression — so torn-tail detection reduces to
// "the length prefix or the CRC does not check out", and the same framing
// carries checkpoint pages (see internal/engine). A frame whose length
// prefix exceeds maxFramePayload is treated as corruption: lengths that
// large can only come from a torn or scribbled header, and trusting one
// would make the scanner allocate unbounded memory from garbage.
const (
	frameHeaderSize = 8
	maxFramePayload = 1 << 26 // 64 MiB; far above any record the engine emits
	// frameReadStep bounds each read of a frame's payload. The length
	// prefix is not trusted for allocation: a scribbled header claiming
	// 64 MiB over a short file costs what the file holds, not what the
	// header claims.
	frameReadStep = 1 << 16
)

// ErrCorrupt reports a frame that failed validation somewhere other than a
// truncatable tail (e.g. during Replay of a log Open already cleaned).
var ErrCorrupt = fmt.Errorf("wal: corrupt frame")

// AppendFrame appends one length-prefixed, CRC-checksummed frame carrying
// payload to dst and returns the extended slice. Shared by the record
// writer below and the engine's checkpoint page writer.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// ReadFrame reads the next frame from br and returns its payload. It
// returns io.EOF at a clean end, and io.ErrUnexpectedEOF or ErrCorrupt for
// a torn or damaged frame (the caller decides whether that is a truncation
// point or a hard error).
func ReadFrame(br *bufio.Reader) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err // io.EOF: clean end
	}
	claimed := binary.LittleEndian.Uint32(hdr[0:4])
	if claimed > maxFramePayload {
		return nil, ErrCorrupt
	}
	n := int(claimed)
	payload := make([]byte, 0, min(n, frameReadStep))
	for len(payload) < n {
		step := min(n-len(payload), frameReadStep)
		payload = slices.Grow(payload, step)
		if _, err := io.ReadFull(br, payload[len(payload):len(payload)+step]); err != nil {
			return nil, io.ErrUnexpectedEOF
		}
		payload = payload[:len(payload)+step]
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, ErrCorrupt
	}
	return payload, nil
}

// encodeRecord appends rec as one frame to dst. The payload is encoded
// directly into dst after a placeholder header — no intermediate payload
// slice — so batched appends into a reusable buffer allocate nothing
// beyond the buffer's own amortized growth.
func encodeRecord(dst []byte, rec Record) []byte {
	start := len(dst)
	var hdr [frameHeaderSize]byte
	dst = append(dst, hdr[:]...) // patched below once the payload is known
	dst = binary.LittleEndian.AppendUint64(dst, rec.LSN)
	dst = binary.LittleEndian.AppendUint64(dst, rec.TxnID)
	dst = append(dst, byte(rec.Kind))
	dst = appendString(dst, rec.DB)
	dst = appendString(dst, rec.Table)
	dst = appendString(dst, rec.Data)
	payload := dst[start+frameHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:start+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:start+8], crc32.ChecksumIEEE(payload))
	return dst
}

// decodeRecord parses one record payload produced by encodeRecord.
func decodeRecord(payload []byte) (Record, error) {
	var rec Record
	if len(payload) < 17 {
		return rec, ErrCorrupt
	}
	rec.LSN = binary.LittleEndian.Uint64(payload[0:8])
	rec.TxnID = binary.LittleEndian.Uint64(payload[8:16])
	rec.Kind = RecordKind(payload[16])
	if rec.Kind < RecBegin || rec.Kind > RecDDL {
		return rec, ErrCorrupt
	}
	rest := payload[17:]
	var err error
	if rec.DB, rest, err = readString(rest); err != nil {
		return rec, err
	}
	if rec.Table, rest, err = readString(rest); err != nil {
		return rec, err
	}
	if rec.Data, rest, err = readString(rest); err != nil {
		return rec, err
	}
	if len(rest) != 0 {
		return rec, ErrCorrupt
	}
	return rec, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func readString(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, ErrCorrupt
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if uint32(len(b)-4) < n {
		return "", nil, ErrCorrupt
	}
	return string(b[4 : 4+n]), b[4+n:], nil
}

// scanRecords reads consecutive record frames from r, invoking fn with each
// decoded record and the byte offset just past its frame. It returns the
// offset of the end of the last well-formed record and whether the scan
// stopped at a torn or corrupt frame (true) or a clean EOF (false). An
// error from fn aborts the scan and is returned verbatim.
func scanRecords(r io.Reader, fn func(rec Record, end int64) error) (int64, bool, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var end int64
	for {
		payload, err := ReadFrame(br)
		if err == io.EOF {
			return end, false, nil
		}
		if err == io.ErrUnexpectedEOF || err == ErrCorrupt {
			return end, true, nil
		}
		if err != nil {
			return end, false, err
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			return end, true, nil
		}
		end += int64(frameHeaderSize + len(payload))
		if fn != nil {
			if ferr := fn(rec, end); ferr != nil {
				return end, false, ferr
			}
		}
	}
}
