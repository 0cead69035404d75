package mvcc

import (
	"errors"
	"math"
	"sync"
	"testing"

	"madeus/internal/sqlmini"
	"madeus/internal/storage"
)

// TestNegativeZeroIsOneKey: FLOAT keys compare by their bits in the row
// maps and indexes, so NewFloat must store −0 as +0 for the two to be one
// primary key and one index key, as they are one value.
func TestNegativeZeroIsOneKey(t *testing.T) {
	s, err := storage.NewSchema("f", []storage.Column{
		{Name: "k", Type: sqlmini.KindFloat, PrimaryKey: true},
		{Name: "v", Type: sqlmini.KindFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager()
	tb := NewTable(s, m)
	if err := tb.CreateIndex("by_v", "v"); err != nil {
		t.Fatal(err)
	}
	negZero, zero := sqlmini.NewFloat(math.Copysign(0, -1)), sqlmini.NewFloat(0)
	txn := m.Begin()
	if err := tb.Insert(txn, storage.Row{negZero, negZero}); err != nil {
		t.Fatal(err)
	}
	if tb.Get(txn, zero) == nil {
		t.Error("the row keyed -0 is not found under 0")
	}
	if err := tb.Insert(txn, storage.Row{zero, zero}); !errors.Is(err, ErrUniqueViolation) {
		t.Errorf("inserting key 0 beside key -0: %v, want ErrUniqueViolation", err)
	}
	if pks, _ := tb.IndexLookup("v", zero); len(pks) != 1 || pks[0] != zero {
		t.Errorf("index lookup of 0 = %v, want the one row", pks)
	}
}

// TestIndexBuildOnlineUnderWriters builds an index while four writers
// insert, and churns a second index so the published list is replaced
// over and over under their lock-free reads. The online-build guarantee
// must hold: every committed row is a candidate of its value's lookup,
// whether the backfill or its own writer indexed it.
func TestIndexBuildOnlineUnderWriters(t *testing.T) {
	const (
		writers = 4
		perW    = 2000
		values  = 10
	)
	m, tb := testTableStriped(t, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < perW; i++ {
				k := int64(g*perW + i)
				w := m.Begin()
				if err := tb.Insert(w, row(k, k%values)); err != nil {
					t.Error(err)
					w.Abort()
					return
				}
				if _, err := w.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	close(start)
	if err := tb.CreateIndex("by_v", "v"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := tb.CreateIndex("churn", "k"); err != nil {
			t.Fatal(err)
		}
		if err := tb.DropIndex("churn"); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	if got := tb.Indexes(); len(got) != 1 || got["by_v"] != "v" {
		t.Fatalf("Indexes() = %v, want only by_v on v", got)
	}
	for v := int64(0); v < values; v++ {
		pks, ok := tb.IndexLookup("v", sqlmini.NewInt(v))
		if !ok {
			t.Fatal("no index covers v")
		}
		have := make(map[sqlmini.Value]bool, len(pks))
		for _, pk := range pks {
			have[pk] = true
		}
		for k := v; k < writers*perW; k += values {
			if !have[key(k)] {
				t.Fatalf("row %d (v=%d) committed but missing from the index", k, v)
			}
		}
	}
}
