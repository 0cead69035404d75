package mvcc

import (
	"sync"
	"testing"

	"madeus/internal/sqlmini"
)

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
