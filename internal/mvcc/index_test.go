package mvcc

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

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

// TestVacuumDuringCreateIndex runs index DDL against Vacuum on one table. A
// backfill files each row into the new index under the row's lock, so a
// sweep that took row locks while it held the index's lock deadlocked
// against it on the first key both reached. Each row has two versions and a
// pinned snapshot keeps both, so every sweep visits every row. Afterwards
// the sweep must still drop the values no version holds, and a lookup must
// find every row that holds its value.
func TestVacuumDuringCreateIndex(t *testing.T) {
	const keys = 2000
	m, tb := testTableStriped(t, 8)
	w := m.Begin()
	for k := int64(0); k < keys; k++ {
		mustInsert(t, tb, w, k, k)
	}
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	pin := m.Begin()
	u := m.Begin()
	for k := int64(0); k < keys; k++ {
		if ok, err := tb.Update(u, key(k), row(k, keys+k)); !ok || err != nil {
			t.Fatalf("update %d: %v, %v", k, ok, err)
		}
	}
	if _, err := u.Commit(); err != nil {
		t.Fatal(err)
	}

	stop, vacuumed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(vacuumed)
		for {
			select {
			case <-stop:
				return
			default:
				tb.Vacuum(m.Horizon())
			}
		}
	}()
	ddl := make(chan error, 1)
	go func() {
		for end := time.Now().Add(time.Second); time.Now().Before(end); {
			if err := tb.CreateIndex("by_v", "v"); err != nil {
				ddl <- err
				return
			}
			if err := tb.DropIndex("by_v"); err != nil {
				ddl <- err
				return
			}
		}
		ddl <- nil
	}()
	select {
	case err := <-ddl:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("CREATE/DROP INDEX against VACUUM made no progress in 10s: deadlock")
	}
	close(stop)
	<-vacuumed

	if err := tb.CreateIndex("by_v", "v"); err != nil {
		t.Fatal(err)
	}
	pin.Abort()
	tb.Vacuum(m.Horizon())
	for k := int64(0); k < keys; k++ {
		if pks, _ := tb.IndexLookup("v", sqlmini.NewInt(keys+k)); len(pks) != 1 || pks[0] != key(k) {
			t.Fatalf("lookup of v=%d = %v, want row %d", keys+k, pks, k)
		}
		if pks, _ := tb.IndexLookup("v", sqlmini.NewInt(k)); len(pks) != 0 {
			t.Fatalf("lookup of v=%d = %v after vacuum, want no candidates", k, pks)
		}
	}
}
