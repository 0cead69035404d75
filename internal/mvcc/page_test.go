package mvcc

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"madeus/internal/sqlmini"
	"madeus/internal/storage"
)

// hasPointers reports whether a value of type t holds a pointer the
// collector would have to follow.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true
}

// TestStoredVersionIsPointerFree pins what keeps a table's rows out of the
// collector's mark phase: a version, and so a chain's version array, holds
// no pointer, and neither does a page.
func TestStoredVersionIsPointerFree(t *testing.T) {
	if hasPointers(reflect.TypeFor[version]()) {
		t.Error("version holds a pointer: every chain's version array would be scanned")
	}
	m, tb := testTable(t)
	mustInsert(t, tb, m.Begin(), 1, 1)
	page := reflect.TypeOf(tb.pageDir()).Elem()
	if page.Kind() != reflect.Slice || hasPointers(page.Elem()) {
		t.Errorf("a page is a %v: its elements hold pointers", page)
	}
}

// codecSchema returns a schema whose column i has the kind of row[i], TEXT
// for a NULL.
func codecSchema(t *testing.T, row storage.Row) *storage.Schema {
	t.Helper()
	cols := make([]storage.Column, len(row))
	for i, v := range row {
		cols[i] = storage.Column{Name: fmt.Sprintf("c%d", i), Type: v.Kind}
		if v.Kind == sqlmini.KindNull {
			cols[i].Type = sqlmini.KindText
		}
	}
	cols[0].PrimaryKey = true
	s, err := storage.NewSchema("codec", cols)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// FuzzRowCodec: any row encodes to rowSize bytes and decodes back to an
// Equal row, bit for bit — a FLOAT's bits as they were, −0 included — and
// the decoder reads exactly the bytes the encoder wrote; DecodeRec, which
// trusts nothing, accepts it and reads it the same. spec picks each
// column's kind (spec[i] % 5: NULL, INT, FLOAT, TEXT, BOOL) and varies its
// value; n, bits and text feed the INTs, FLOATs and TEXTs.
func FuzzRowCodec(f *testing.F) {
	kinds := func(ks ...sqlmini.ValueKind) []byte {
		b := make([]byte, len(ks))
		for i, k := range ks {
			b[i] = byte(k)
		}
		return b
	}
	const (
		null = sqlmini.KindNull
		i    = sqlmini.KindInt
		fl   = sqlmini.KindFloat
		tx   = sqlmini.KindText
		bo   = sqlmini.KindBool
	)
	// TPC-W rows: item, orders, customer.
	f.Add(kinds(i, tx, i, fl, fl, tx, i), "The Art of Computer Programming", int64(4211), math.Float64bits(39.95))
	f.Add(kinds(i, i, fl, fl, fl, tx, tx, i), "SHIPPED", int64(7), math.Float64bits(1.2345675e+06))
	f.Add(kinds(i, tx, tx, tx, tx, fl, bo), "it's a 'quoted' name", int64(1), math.Float64bits(0.5))
	// Exponent and −0 FLOATs, the least INT.
	f.Add(kinds(i, fl, fl), "", int64(math.MinInt64), math.Float64bits(1e-05))
	f.Add(kinds(i, fl), "", int64(0), math.Float64bits(math.Copysign(0, -1)))
	f.Add(kinds(i, fl), "", int64(math.MaxInt64), math.Float64bits(math.Inf(-1)))
	// Empty TEXT, TEXT with quotes and NUL bytes, a TEXT longer than a
	// one-byte length.
	f.Add(kinds(i, tx), "", int64(2), uint64(0))
	f.Add(kinds(tx, tx, tx), "a''b\x00c\x00'", int64(3), uint64(0))
	f.Add(kinds(i, tx), string(make([]byte, 300)), int64(4), uint64(0))
	// NULL in every non-PK column.
	f.Add(kinds(i, null, null, null, null, null), "", int64(5), uint64(0))
	f.Fuzz(func(t *testing.T, spec []byte, text string, n int64, bits uint64) {
		if len(spec) == 0 || len(spec) > 32 {
			return
		}
		row := make(storage.Row, len(spec))
		for c, b := range spec {
			switch sqlmini.ValueKind(b % 5) {
			case sqlmini.KindInt:
				row[c] = sqlmini.NewInt(n ^ int64(b>>3))
			case sqlmini.KindFloat:
				row[c] = sqlmini.Value{Kind: sqlmini.KindFloat, Int: int64(bits)}
			case sqlmini.KindText:
				row[c] = sqlmini.NewText(text[min(int(b>>3), len(text)):])
			case sqlmini.KindBool:
				row[c] = sqlmini.NewBool(b&8 != 0)
			}
		}
		if row[0].Kind == sqlmini.KindNull {
			row[0] = sqlmini.NewInt(n)
		}
		sch := codecSchema(t, row)
		enc := appendRow([]byte("prefix"), sch, row)[len("prefix"):]
		if len(enc) != rowSize(row) {
			t.Fatalf("%v encodes to %d bytes, rowSize says %d", row, len(enc), rowSize(row))
		}
		tb := &Table{Schema: sch}
		if got := tb.EncodedSize(append(enc, 0xff, 0xff)); got != len(enc) {
			t.Fatalf("%v: the decoder reads %d bytes of %d", row, got, len(enc))
		}
		got := make(storage.Row, len(row))
		decodeRow(enc, got)
		if !got.Equal(row) {
			t.Fatalf("round trip:\n got %#v\nwant %#v", got, row)
		}
		// The untrusting decoder accepts every row the encoder writes.
		clear(got)
		if size, err := tb.DecodeRec(append(enc, 0xff), got); err != nil || size != len(enc) || !got.Equal(row) {
			t.Fatalf("DecodeRec = %d, %v, %#v; want %d, nil, %#v", size, err, got, len(enc), row)
		}
	})
}

// TestReadersDuringCompaction runs point and full reads, and writers,
// against a table while Vacuum compacts its pages again and again (run it
// under -race). Every row a reader sees is whole — its TEXT matches its
// value — and so is every row it decoded before a compaction dropped the
// page it was in.
func TestReadersDuringCompaction(t *testing.T) {
	s, err := storage.NewSchema("kv", []storage.Column{
		{Name: "k", Type: sqlmini.KindInt, PrimaryKey: true},
		{Name: "v", Type: sqlmini.KindInt},
		{Name: "s", Type: sqlmini.KindText},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager()
	tb := NewTable(s, m)
	const keys = 200
	rowOf := func(k, v int64) storage.Row {
		return storage.Row{key(k), sqlmini.NewInt(v), sqlmini.NewText(fmt.Sprintf("value %d of key %d", v, k))}
	}
	whole := func(r storage.Row) error {
		if want := fmt.Sprintf("value %d of key %d", r[1].Int, r[0].Int); r[2].Str != want {
			return fmt.Errorf("row %v: TEXT %q, want %q", r[:2], r[2].Str, want)
		}
		return nil
	}
	load := m.Begin()
	for k := int64(0); k < keys; k++ {
		if err := tb.Insert(load, rowOf(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, load)
	firstPages := len(tb.pageDir())

	var (
		wg   sync.WaitGroup
		stop = make(chan struct{})
		errs = make(chan error, 8)
	)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	var kept []storage.Row // rows a reader decoded, checked after the compactions
	wg.Add(3)
	go func() { // writer: every update leaves a dead row behind
		defer wg.Done()
		for v := int64(1); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			w := m.Begin()
			k := v % keys
			if _, err := tb.Update(w, key(k), rowOf(k, v)); err != nil {
				report(err)
				w.Abort()
				return
			}
			if _, err := w.Commit(); err != nil {
				report(err)
				return
			}
		}
	}()
	go func() { // point reader
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r := m.Begin()
			row := tb.Get(r, key(i%keys))
			if row == nil {
				report(fmt.Errorf("key %d vanished", i%keys))
			} else if err := whole(row); err != nil {
				report(err)
			} else if i%50 == 0 {
				kept = append(kept, row.Clone())
			}
			r.Commit()
		}
	}()
	go func() { // scanner
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r := m.Begin()
			n := 0
			tb.Scan(r, func(row storage.Row) bool {
				n++
				if err := whole(row); err != nil {
					report(err)
					return false
				}
				return true
			})
			if n != keys {
				report(fmt.Errorf("scan saw %d rows, want %d", n, keys))
			}
			r.Commit()
		}
	}()
	compactions := 0
	deadline := time.Now().Add(20 * time.Second)
	for compactions < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("%d compactions in 20 s", compactions)
		}
		last := len(tb.pageDir()) - 1
		m.PruneStates()
		tb.Vacuum(m.Horizon())
		if tb.pageDir()[last] == nil { // this page, or a later one, was the newest
			compactions++
		}
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	for _, r := range kept {
		if err := whole(r); err != nil {
			t.Fatalf("a row decoded before a compaction changed: %v", err)
		}
	}
	for i, p := range tb.pageDir()[:firstPages] {
		if p != nil {
			t.Fatalf("page %d of the initial load is still in the directory after %d compactions", i, compactions)
		}
	}
}
