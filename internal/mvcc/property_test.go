package mvcc

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"madeus/internal/sqlmini"
	"madeus/internal/storage"
)

// TestPropertySnapshotStability: whatever interleaving of concurrent
// committed writers runs, a reader's repeated Get of the same key inside one
// transaction always returns the same value (repeatable reads under SI).
func TestPropertySnapshotStability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, tb := quickTable(t)
		init := m.Begin()
		for k := int64(0); k < 5; k++ {
			if err := tb.Insert(init, row(k, 0)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := init.Commit(); err != nil {
			t.Fatal(err)
		}

		reader := m.Begin()
		first := make(map[int64]int64)
		for k := int64(0); k < 5; k++ {
			r := tb.Get(reader, key(k))
			first[k] = r[1].Int
		}
		// Interleave random committed writes.
		for i := 0; i < 20; i++ {
			w := m.Begin()
			k := rng.Int63n(5)
			if ok, err := tb.Update(w, key(k), row(k, rng.Int63n(1000)+1)); err != nil || !ok {
				w.Abort()
				continue
			}
			if _, err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			// Reader must still see its snapshot.
			kk := rng.Int63n(5)
			r := tb.Get(reader, key(kk))
			if r == nil || r[1].Int != first[kk] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFirstUpdaterWins: among N transactions that all try to update
// the same row concurrently (write before any commits), at most one commits
// successfully per "round", and the final row value matches the last
// committed writer.
func TestPropertyFirstUpdaterWins(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, tb := quickTable(t)
		m.LockTimeout = time.Second
		init := m.Begin()
		if err := tb.Insert(init, row(1, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := init.Commit(); err != nil {
			t.Fatal(err)
		}

		n := 2 + rng.Intn(4)
		txns := make([]*Txn, n)
		for i := range txns {
			txns[i] = m.Begin()
		}
		// The first txn to update acquires the lock; the rest would
		// block, so issue writes sequentially: winner first, then the
		// rest after the winner resolves.
		winner := rng.Intn(n)
		if ok, err := tb.Update(txns[winner], key(1), row(1, int64(winner+1))); err != nil || !ok {
			return false
		}
		if _, err := txns[winner].Commit(); err != nil {
			t.Fatal(err)
		}
		// Every remaining concurrent txn must now fail to update.
		for i, txn := range txns {
			if i == winner {
				continue
			}
			if _, err := tb.Update(txn, key(1), row(1, int64(i+100))); err != ErrSerialization {
				return false
			}
			txn.Abort()
		}
		final := tb.Get(m.Begin(), key(1))
		return final != nil && final[1].Int == int64(winner+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMonotoneCSN: commit sequence numbers are strictly increasing
// and every committed transaction's effects are visible to snapshots taken
// at or after its CSN and invisible before.
func TestPropertyMonotoneCSN(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, tb := quickTable(t)
		var last CSN
		for i := int64(0); i < 10; i++ {
			txn := m.Begin()
			if err := tb.Insert(txn, row(i, rng.Int63n(100))); err != nil {
				t.Fatal(err)
			}
			csn, err := txn.Commit()
			if err != nil {
				t.Fatal(err)
			}
			if csn <= last {
				return false
			}
			last = csn
			if m.LastCSN() != csn {
				return false
			}
			// New snapshot sees exactly i+1 rows.
			if got := tb.Len(m.Begin()); got != int(i)+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func quickTable(t testing.TB) (*Manager, *Table) {
	s, err := storage.NewSchema("kv", []storage.Column{
		{Name: "k", Type: sqlmini.KindInt, PrimaryKey: true},
		{Name: "v", Type: sqlmini.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager()
	return m, NewTable(s, m)
}

func BenchmarkGetHot(b *testing.B) {
	m, tb := quickTable(b)
	init := m.Begin()
	if err := tb.Insert(init, row(1, 1)); err != nil {
		b.Fatal(err)
	}
	if _, err := init.Commit(); err != nil {
		b.Fatal(err)
	}
	txn := m.Begin()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := tb.Get(txn, key(1)); r == nil {
			b.Fatal("missing row")
		}
	}
}

func BenchmarkInsertCommit(b *testing.B) {
	m, tb := quickTable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := m.Begin()
		if err := tb.Insert(txn, row(int64(i), 1)); err != nil {
			b.Fatal(err)
		}
		if _, err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertInterleavedChunks is one op per restore-shaped load of
// 60 k keys: four appliers each own every fourth 3,200-key chunk and take
// turns landing 50 keys per transaction, so chunks arrive out of key order
// the way a migration's Step 2 lands them (made deterministic by running
// the turns on one goroutine). The op ends with the first scan, which is
// where the chain directory settles the out-of-order arrivals.
func BenchmarkInsertInterleavedChunks(b *testing.B) {
	const (
		keys     = 60_000
		chunk    = 3200
		appliers = 4
		perTxn   = 50
	)
	for i := 0; i < b.N; i++ {
		m, tb := quickTable(b)
		var next [appliers]int // each applier's next key
		for a := range next {
			next[a] = a * chunk
		}
		for landed := 0; landed < keys; {
			for a := range next {
				if next[a] >= keys {
					continue
				}
				txn := m.Begin()
				for n := 0; n < perTxn && next[a] < keys; n++ {
					if err := tb.Insert(txn, row(int64(next[a]), 1)); err != nil {
						b.Fatal(err)
					}
					landed++
					if next[a]++; next[a]%chunk == 0 {
						next[a] += (appliers - 1) * chunk // on to this applier's next chunk
					}
				}
				if _, err := txn.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		}
		if n := tb.Len(m.Begin()); n != keys {
			b.Fatalf("loaded %d rows, want %d", n, keys)
		}
	}
}

// BenchmarkInsertSparseKeys is one op per load of 20 k rows whose keys
// leave most of their blocks' slots empty, and the first scan: order_line's
// oid*10+k (one to three lines per order, orders one to three ids apart, as
// TPC-W's buy-confirm lands them), and keys a block apart, each alone in
// its block. B/op over the rows is what the directory costs a row there.
func BenchmarkInsertSparseKeys(b *testing.B) {
	const rows = 20_000
	orderLines := func() []int64 {
		rng := rand.New(rand.NewSource(1))
		keys := make([]int64, 0, rows)
		for oid := int64(10_000_000); len(keys) < rows; oid += 1 + rng.Int63n(3) {
			for k := int64(0); k <= rng.Int63n(3) && len(keys) < rows; k++ {
				keys = append(keys, oid*10+k)
			}
		}
		return keys
	}
	strided := func() []int64 {
		keys := make([]int64, rows)
		for i := range keys {
			keys[i] = int64(i) * blockKeys
		}
		return keys
	}
	for _, bc := range []struct {
		name string
		keys []int64
	}{{"order_line", orderLines()}, {"stride=64", strided()}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, tb := quickTable(b)
				for ks := bc.keys; len(ks) > 0; {
					n := min(50, len(ks))
					txn := m.Begin()
					for _, k := range ks[:n] {
						if err := tb.Insert(txn, row(k, 1)); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := txn.Commit(); err != nil {
						b.Fatal(err)
					}
					ks = ks[n:]
				}
				if n := tb.Len(m.Begin()); n != rows {
					b.Fatalf("loaded %d rows, want %d", n, rows)
				}
			}
		})
	}
}

// BenchmarkScan20k is one op per full scan of a settled 20 k-row table
// (order-large's item table).
func BenchmarkScan20k(b *testing.B) {
	const rows = 20_000
	m, tb := quickTable(b)
	init := m.Begin()
	for k := int64(0); k < rows; k++ {
		if err := tb.Insert(init, row(k, 1)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := init.Commit(); err != nil {
		b.Fatal(err)
	}
	txn := m.Begin()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := tb.Len(txn); n != rows {
			b.Fatalf("scan saw %d rows, want %d", n, rows)
		}
	}
}

func BenchmarkUpdateDisjointParallel(b *testing.B) {
	m, tb := quickTable(b)
	init := m.Begin()
	for k := int64(0); k < 1024; k++ {
		if err := tb.Insert(init, row(k, 0)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := init.Commit(); err != nil {
		b.Fatal(err)
	}
	var ctr atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := (ctr.Add(1) * 7) % 1024
			txn := m.Begin()
			if ok, err := tb.Update(txn, key(k), row(k, 1)); err != nil || !ok {
				txn.Abort()
				continue
			}
			if _, err := txn.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
