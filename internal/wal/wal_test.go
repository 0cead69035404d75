package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestGroupCommitBatchesConcurrentCommits(t *testing.T) {
	l := New(Options{SyncDelay: 2 * time.Millisecond, Mode: GroupCommit})
	defer l.Close()

	const n = 50
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.Commit(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	st := l.Stats()
	if st.Commits != n {
		t.Errorf("Commits = %d, want %d", st.Commits, n)
	}
	// 50 concurrent commits must share fsyncs: far fewer than one each,
	// which also bounds their latency well below n serial SyncDelays.
	if st.Fsyncs >= n/2 {
		t.Errorf("Fsyncs = %d, want < %d (group commit not batching)", st.Fsyncs, n/2)
	}
	if st.MaxBatch < 2 {
		t.Errorf("MaxBatch = %d, want >= 2", st.MaxBatch)
	}
}

func TestSerialCommitOneFsyncPerCommit(t *testing.T) {
	l := New(Options{SyncDelay: 100 * time.Microsecond, Mode: SerialCommit})
	defer l.Close()

	const n = 20
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.Commit(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := l.Stats()
	if st.Fsyncs != n {
		t.Errorf("Fsyncs = %d, want %d", st.Fsyncs, n)
	}
	if st.MaxBatch != 1 {
		t.Errorf("MaxBatch = %d, want 1", st.MaxBatch)
	}
}

func TestAppendCountsAndRetains(t *testing.T) {
	l := New(Options{RetainRecords: 2})
	defer l.Close()
	l.Append(Record{TxnID: 1, Kind: RecInsert, DB: "a", Table: "t", Data: "x"})
	l.Append(Record{TxnID: 1, Kind: RecCommit})
	l.Append(Record{TxnID: 2, Kind: RecInsert}) // beyond retain cap
	st := l.Stats()
	if st.Records != 3 {
		t.Errorf("Records = %d, want 3", st.Records)
	}
	got := l.Retained()
	if len(got) != 2 || got[0].Data != "x" || got[1].Kind != RecCommit {
		t.Errorf("Retained = %+v", got)
	}
}

func TestCommitAfterCloseFails(t *testing.T) {
	l := New(Options{Mode: GroupCommit})
	l.Close()
	if err := l.Commit(); err == nil {
		t.Error("want error after Close")
	}
}

func TestCloseIdempotent(t *testing.T) {
	l := New(Options{Mode: GroupCommit})
	l.Close()
	l.Close() // must not panic or deadlock
}

func TestZeroSyncDelayStillCountsFsyncs(t *testing.T) {
	l := New(Options{Mode: SerialCommit})
	defer l.Close()
	for i := 0; i < 5; i++ {
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Fsyncs != 5 {
		t.Errorf("Fsyncs = %d, want 5", st.Fsyncs)
	}
}

func TestModeString(t *testing.T) {
	if GroupCommit.String() != "group" || SerialCommit.String() != "serial" {
		t.Error("Mode.String")
	}
}

// TestGroupCommitThroughputExceedsSerial demonstrates the paper's cost
// model: with commit arrival concurrency, group commit sustains much higher
// commit throughput than serial commit at the same fsync latency.
func TestGroupCommitThroughputExceedsSerial(t *testing.T) {
	// The delay must be in simlat's sleep regime (>= 2ms): shorter
	// delays busy-wait, and on a single-CPU host a spinning committer
	// starves the enqueuers, preventing batch formation.
	const (
		delay   = 3 * time.Millisecond
		workers = 32
		perW    = 5
	)
	run := func(mode Mode) time.Duration {
		l := New(Options{SyncDelay: delay, Mode: mode})
		defer l.Close()
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < perW; j++ {
					if err := l.Commit(); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	group := run(GroupCommit)
	serial := run(SerialCommit)
	if group >= serial {
		t.Errorf("group %v not faster than serial %v", group, serial)
	}
}

func BenchmarkGroupCommitParallel(b *testing.B) {
	l := New(Options{SyncDelay: 200 * time.Microsecond, Mode: GroupCommit})
	defer l.Close()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := l.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSerialCommitParallel(b *testing.B) {
	l := New(Options{SyncDelay: 200 * time.Microsecond, Mode: SerialCommit})
	defer l.Close()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := l.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestReadFrameAllocatesWhatItReads: a header claiming the 64 MiB maximum
// over a 10-byte tail is a torn frame, and reading it allocates what the
// input holds, not what the header claims.
func TestReadFrameAllocatesWhatItReads(t *testing.T) {
	frame := binary.LittleEndian.AppendUint32(nil, maxFramePayload)
	frame = binary.LittleEndian.AppendUint32(frame, 0)
	frame = append(frame, "0123456789"...)
	br := bufio.NewReaderSize(bytes.NewReader(frame), 1<<16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(br)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("ReadFrame allocated %d bytes for a 10-byte payload claiming %d", got, maxFramePayload)
	}
}
