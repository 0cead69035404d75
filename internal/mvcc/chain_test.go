package mvcc

import (
	"reflect"
	"testing"
	"time"
)

// pointerIn returns the path of the first field of typ the collector would
// have to scan, or "" when typ holds no pointer.
func pointerIn(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.String:
		return path
	case reflect.Array:
		if typ.Len() > 0 {
			return pointerIn(typ.Elem(), path+"[0]")
		}
	case reflect.Struct:
		for i := range typ.NumField() {
			f := typ.Field(i)
			if p := pointerIn(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestChainsHoldNoPointer pins what keeps a mark phase's work independent
// of how many rows the tables hold: a chain holds no pointer, so a block's
// chain arrays are no-scan, and a block holds a pointer per array, not per
// chain.
func TestChainsHoldNoPointer(t *testing.T) {
	if p := pointerIn(reflect.TypeOf(rowChain{}), "rowChain"); p != "" {
		t.Errorf("%s is a pointer the collector scans in every chain", p)
	}
}

// TestBlockChainArrays inserts a block's keys one transaction at a time, so
// each takes its chain alone: the chains come in at most blockArrays
// arrays, and every key keeps its own chain and row.
func TestBlockChainArrays(t *testing.T) {
	m, tb := testTable(t)
	for k := int64(blockKeys - 1); k >= 0; k-- {
		w := m.Begin()
		mustInsert(t, tb, w, k, k*10)
		mustCommit(t, w)
	}
	b := tb.stripeFor(key(0)).block(key(0))
	if b.made != blockKeys || b.narrays > blockArrays {
		t.Fatalf("%d chains in %d arrays, want %d in at most %d", b.made, b.narrays, blockKeys, blockArrays)
	}
	r := m.Begin()
	for k := int64(0); k < blockKeys; k++ {
		if got := tb.Get(r, key(k)); got == nil || got[1].Int != k*10 {
			t.Fatalf("key %d reads %v", k, got)
		}
	}
	if n := tb.Len(r); n != blockKeys {
		t.Fatalf("Len %d, want %d", n, blockKeys)
	}
	mustCommit(t, r)
}

// TestChainExtensions drives a chain through everything its extension
// holds: versions past the first, a waiter that times out and one that is
// woken, and a vacuum back to one version, after which the chain still
// reads and updates through the extension it kept.
func TestChainExtensions(t *testing.T) {
	m, tb := testTable(t)
	m.LockTimeout = 20 * time.Millisecond
	w := m.Begin()
	mustInsert(t, tb, w, 1, 0)
	mustCommit(t, w)
	for i := int64(1); i <= 3; i++ {
		u := m.Begin()
		if ok, err := tb.Update(u, key(1), row(1, i)); err != nil || !ok {
			t.Fatalf("update %d: %v %v", i, ok, err)
		}
		mustCommit(t, u)
	}
	if n := chainLen(tb, 1); n != 4 {
		t.Fatalf("%d versions after three updates, want 4", n)
	}

	holder := m.Begin()
	if ok, err := tb.Update(holder, key(1), row(1, 4)); err != nil || !ok {
		t.Fatal(ok, err)
	}
	timedOut := m.Begin()
	if _, err := tb.Update(timedOut, key(1), row(1, 5)); err != ErrLockTimeout {
		t.Fatalf("waiter got %v, want ErrLockTimeout", err)
	}
	timedOut.Abort()
	m.LockTimeout = 10 * time.Second
	woken := m.Begin()
	done := make(chan error, 1)
	go func() {
		_, err := tb.Update(woken, key(1), row(1, 6))
		done <- err
	}()
	ch := tb.chain(key(1), false)
	for waiting := false; !waiting; {
		time.Sleep(time.Millisecond)
		ch.mu.Lock()
		waiting = len(tb.ext(ch).waiters) == 1
		ch.mu.Unlock()
	}
	holder.Abort()
	if err := <-done; err != nil {
		t.Fatalf("woken waiter: %v", err)
	}
	mustCommit(t, woken)

	tb.Vacuum(m.Horizon())
	if n := chainLen(tb, 1); n != 1 {
		t.Fatalf("%d versions after vacuum, want 1", n)
	}
	if ch.ext == 0 {
		t.Fatal("the chain lost its extension")
	}
	u := m.Begin()
	if ok, err := tb.Update(u, key(1), row(1, 7)); err != nil || !ok {
		t.Fatal(ok, err)
	}
	mustCommit(t, u)
	r := m.Begin()
	if got := tb.Get(r, key(1)); got == nil || got[1].Int != 7 {
		t.Fatalf("reads %v, want v=7", got)
	}
	mustCommit(t, r)
}
