package wal

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// appendWorkload runs a seeded random transaction mix against l (serial
// commit: every Commit flushes, so each commit record's frame end is a
// durability boundary) and returns the records in append order. Record i has
// LSN i+1 on a fresh log.
func appendWorkload(t *testing.T, l *Log, rng *rand.Rand, txns int) []Record {
	t.Helper()
	var recs []Record
	put := func(rec Record) {
		l.Append(rec)
		recs = append(recs, rec)
	}
	for i := 0; i < txns; i++ {
		txn := uint64(i + 1)
		if rng.Intn(100) < 15 {
			put(Record{Kind: RecDDL, DB: "db", Data: fmt.Sprintf("DDL %d", txn)})
		}
		writes := rng.Intn(4)
		for j := 0; j < writes; j++ {
			kind := []RecordKind{RecInsert, RecUpdate, RecDelete}[rng.Intn(3)]
			put(Record{TxnID: txn, Kind: kind, DB: "db", Table: "t",
				Data: fmt.Sprintf("STMT %d.%d", txn, j)})
		}
		switch outcome := rng.Intn(100); {
		case outcome < 70:
			put(Record{TxnID: txn, Kind: RecCommit})
			if err := l.Commit(); err != nil {
				t.Fatalf("commit txn %d: %v", txn, err)
			}
		case outcome < 85:
			put(Record{TxnID: txn, Kind: RecAbort})
		default:
			// Left open: no durable outcome record. Replay must drop it.
		}
	}
	return recs
}

// unitKey serializes a redo unit for oracle comparison.
func unitKey(u Unit) string {
	return fmt.Sprintf("%d/%d/%d/%s/%s", u.LSN, u.TxnID, u.Kind, u.DB, strings.Join(u.Stmts, ";"))
}

// committedPrefix is the oracle: the redo units that the first k appended
// records commit, computed from the test's own append list (not from the
// file), with LSNs derived from append position. It mirrors the WAL
// contract — a transaction is redone iff its commit record is in the prefix,
// DDL is redone at its own LSN — without sharing Replay's bookkeeping.
func committedPrefix(recs []Record, k int) []string {
	type openTxn struct {
		db    string
		stmts []string
	}
	open := make(map[uint64]*openTxn)
	var out []string
	for i, rec := range recs[:k] {
		lsn := uint64(i + 1)
		switch rec.Kind {
		case RecInsert, RecUpdate, RecDelete:
			o := open[rec.TxnID]
			if o == nil {
				o = &openTxn{db: rec.DB}
				open[rec.TxnID] = o
			}
			o.stmts = append(o.stmts, rec.Data)
		case RecAbort:
			delete(open, rec.TxnID)
		case RecCommit:
			o := open[rec.TxnID]
			delete(open, rec.TxnID)
			if o != nil {
				out = append(out, unitKey(Unit{LSN: lsn, TxnID: rec.TxnID, DB: o.db,
					Kind: RecCommit, Stmts: o.stmts}))
			}
		case RecDDL:
			out = append(out, unitKey(Unit{LSN: lsn, TxnID: rec.TxnID, DB: rec.DB,
				Kind: RecDDL, Stmts: []string{rec.Data}}))
		}
	}
	return out
}

// replayUnits opens the log at dir and replays it, returning the serialized
// units and the reopened log.
func replayUnits(t *testing.T, dir string) ([]string, *Log) {
	t.Helper()
	l, err := Open(Options{Mode: SerialCommit, Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	var units []string
	if _, err := l.Replay(func(u Unit) error {
		units = append(units, unitKey(u))
		return nil
	}); err != nil {
		l.Close()
		t.Fatalf("replay: %v", err)
	}
	return units, l
}

// TestCrashTortureEveryBoundary is the crash-torture sweep: a seeded random
// workload is appended to a durable log, then for EVERY frame boundary and
// for torn offsets inside every frame (first byte of the header, the middle
// of the frame, one byte short of complete) the file is truncated to that
// byte prefix — simulating a kill -9 whose last write stopped there — and
// reopened. Recovery must (a) truncate the torn tail, (b) replay exactly the
// committed-prefix oracle, and (c) continue the LSN sequence. Seeds are in
// the subtest names, so a failure is replayable verbatim.
func TestCrashTortureEveryBoundary(t *testing.T) {
	for _, seed := range []int64{1, 42, 20150831} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			tortureSweep(t, seed)
		})
	}
}

func tortureSweep(t *testing.T, seed int64) {
	dir := t.TempDir()
	l, err := Open(Options{Mode: SerialCommit, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	recs := appendWorkload(t, l, rng, 30)
	l.Close() // graceful: flushes aborts/open-txn tails so every frame is on disk

	data, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}

	// Frame offsets, from a raw scan of the closed file.
	var ends []int64
	f, err := os.Open(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	_, torn, err := scanRecords(f, func(rec Record, end int64) error {
		ends = append(ends, end)
		return nil
	})
	f.Close()
	if err != nil || torn {
		t.Fatalf("scan of closed log: torn=%v err=%v", torn, err)
	}
	if len(ends) != len(recs) {
		t.Fatalf("file holds %d records, appended %d", len(ends), len(recs))
	}

	// Crash points: every frame boundary plus torn offsets within each frame.
	points := map[int64]bool{0: true}
	var start int64
	for _, end := range ends {
		points[end] = true
		if start+1 < end {
			points[start+1] = true       // torn header
			points[(start+end)/2] = true // torn mid-frame
			points[end-1] = true         // one byte short: torn final record
		}
		start = end
	}
	t.Logf("seed=%d: %d records, %d bytes, %d crash points", seed, len(recs), len(data), len(points))

	for p := range points {
		p := p
		// validEnd is where Open must truncate to: the last whole frame at
		// or before the crash point.
		validEnd, frames := int64(0), 0
		for i, end := range ends {
			if end <= p {
				validEnd, frames = end, i+1
			}
		}
		crashDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashDir, segmentName(1)), data[:p], 0o644); err != nil {
			t.Fatal(err)
		}
		units, l2 := replayUnits(t, crashDir)
		want := committedPrefix(recs, frames)
		if got := strings.Join(units, "\n"); got != strings.Join(want, "\n") {
			l2.Close()
			t.Fatalf("crash at byte %d (valid end %d, %d frames):\nreplayed:\n%s\nwant:\n%s",
				p, validEnd, frames, got, strings.Join(want, "\n"))
		}
		fi, err := os.Stat(filepath.Join(crashDir, segmentName(1)))
		if err != nil {
			l2.Close()
			t.Fatal(err)
		}
		if fi.Size() != validEnd {
			l2.Close()
			t.Fatalf("crash at byte %d: file size %d after open, want truncated to %d",
				p, fi.Size(), validEnd)
		}
		// The LSN sequence continues past the surviving prefix: record
		// frames[0..frames) carried LSNs 1..frames.
		if got := l2.LastLSN(); got != uint64(frames) {
			l2.Close()
			t.Fatalf("crash at byte %d: LastLSN %d after open, want %d", p, got, frames)
		}
		l2.Append(Record{TxnID: 999, Kind: RecInsert, DB: "db", Data: "post-crash"})
		if got := l2.LastLSN(); got != uint64(frames)+1 {
			l2.Close()
			t.Fatalf("crash at byte %d: LSN after post-crash append = %d, want %d", p, got, frames+1)
		}
		l2.Close()
	}
}

// TestCrashTortureMultiSegment crashes a rotated log (unsynced tail dropped,
// exactly kill -9) and checks replay stitches the segments into one LSN
// sequence with only the durable committed prefix surviving.
func TestCrashTortureMultiSegment(t *testing.T) {
	const seed = 7
	dir := t.TempDir()
	l, err := Open(Options{Mode: SerialCommit, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	recs := appendWorkload(t, l, rng, 12)
	if _, _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	rotateIdx := len(recs) // Rotate flushed: everything before it is durable
	recs = append(recs, appendWorkload(t, l, rng, 12)...)

	// An unresolved tail past the last fsync: a commit-less transaction's
	// writes plus a dangling abort, all still in the buffer when the power
	// goes out.
	l.Append(Record{TxnID: 9999, Kind: RecInsert, DB: "db", Table: "t", Data: "lost"})
	l.Crash()

	// The durable prefix ends at the last flush — the later of the rotation
	// (which flushes) and the last commit record. Aborts and open-txn writes
	// buffered after it are gone.
	durable := rotateIdx
	for i, rec := range recs {
		if rec.Kind == RecCommit {
			durable = i + 1
		}
	}
	units, l2 := replayUnits(t, dir)
	defer l2.Close()
	want := committedPrefix(recs, durable)
	if got := strings.Join(units, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("multi-segment replay:\ngot:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("segments after rotate = %v, want 2", segs)
	}
}
