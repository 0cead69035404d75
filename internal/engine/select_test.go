package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"madeus/internal/mvcc"
	"madeus/internal/sqlmini"
	"madeus/internal/storage"
)

// Columns of the table the SELECT property test queries.
const (
	cID = iota
	cGrp
	cV
	cF
	cS
)

var selColumns = []string{"id", "grp", "v", "f", "s"}

// selPred is a WHERE clause and the same predicate written in Go, so the
// reference does not share the executor's evaluator.
type selPred struct {
	sql  string // "" for no WHERE
	keep func(storage.Row) bool
}

func intIs(v sqlmini.Value, f func(int64) bool) bool   { return !v.IsNull() && f(v.Int) }
func textIs(v sqlmini.Value, f func(string) bool) bool { return !v.IsNull() && f(v.Str) }

// selPreds covers every access path: no WHERE, full scans (one of them an
// equality on an unindexed column), the grp index with and without a
// residual conjunct, and the primary-key lookup (present id, present id
// with a residual, missing id).
func selPreds(pkHit int64) []selPred {
	return []selPred{
		{"", func(storage.Row) bool { return true }},
		{"v > 2", func(r storage.Row) bool { return intIs(r[cV], func(v int64) bool { return v > 2 }) }},
		{"v = 3", func(r storage.Row) bool { return intIs(r[cV], func(v int64) bool { return v == 3 }) }},
		{"s = 'b' OR f < 1.5", func(r storage.Row) bool {
			return textIs(r[cS], func(s string) bool { return s == "b" }) || !r[cF].IsNull() && r[cF].Float() < 1.5
		}},
		{"v > 100", func(storage.Row) bool { return false }},
		{"grp = 2", func(r storage.Row) bool { return r[cGrp].Int == 2 }},
		{"grp = 1 AND v <= 3", func(r storage.Row) bool {
			return r[cGrp].Int == 1 && intIs(r[cV], func(v int64) bool { return v <= 3 })
		}},
		{fmt.Sprintf("id = %d", pkHit), func(r storage.Row) bool { return r[cID].Int == pkHit }},
		{fmt.Sprintf("id = %d AND v > 1", pkHit), func(r storage.Row) bool {
			return r[cID].Int == pkHit && intIs(r[cV], func(v int64) bool { return v > 1 })
		}},
		{"id = 9999", func(storage.Row) bool { return false }},
	}
}

// randSelRow draws a row with few distinct values per column, so sort keys
// tie often, and NULLs in every non-key column but grp.
func randSelRow(rng *rand.Rand, id int64) string {
	v, f, s := "NULL", "NULL", "NULL"
	if rng.Intn(5) > 0 {
		v = fmt.Sprint(rng.Intn(5))
	}
	if rng.Intn(5) > 0 {
		f = fmt.Sprintf("%.1f", float64(rng.Intn(6))/2)
	}
	if rng.Intn(5) > 0 {
		s = fmt.Sprintf("'%c'", 'a'+rng.Intn(5))
	}
	return fmt.Sprintf("(%d, %d, %s, %s, %s)", id, rng.Intn(4), v, f, s)
}

// referenceSelect answers a non-aggregate SELECT the obvious way:
// materialise every row visible to txn with Scan, filter, stable-sort,
// truncate, project.
func referenceSelect(tb *mvcc.Table, txn *mvcc.Txn, keep func(storage.Row) bool, order int, desc bool, limit int, proj []int) [][]sqlmini.Value {
	var rows []storage.Row
	tb.Scan(txn, func(r storage.Row) bool {
		if keep(r) {
			rows = append(rows, r)
		}
		return true
	})
	if order >= 0 {
		slices.SortStableFunc(rows, func(a, b storage.Row) int {
			c, _ := a[order].Compare(b[order])
			if desc {
				return -c
			}
			return c
		})
	}
	if limit >= 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	out := [][]sqlmini.Value{}
	for _, r := range rows {
		var p []sqlmini.Value
		for _, ci := range proj {
			p = append(p, r[ci])
		}
		out = append(out, p)
	}
	return out
}

// sameResult reports whether two results answer alike: the same tag, count,
// columns and values, a nil slice and an empty one alike.
func sameResult(a, b *Result) bool {
	return a.Tag == b.Tag && a.Affected == b.Affected && slices.Equal(a.Columns, b.Columns) &&
		slices.EqualFunc(a.Rows, b.Rows, slices.Equal[[]sqlmini.Value])
}

// checkSelects runs every SELECT shape through s and compares it with the
// reference computed over txn's snapshot.
func checkSelects(t *testing.T, s *Session, txn *mvcc.Txn, rng *rand.Rand, n int, pkHit int64) {
	t.Helper()
	tb, _ := s.db.table("t")
	items := []struct {
		sql  string
		proj []int
	}{
		{"*", []int{cID, cGrp, cV, cF, cS}},
		{"id, v", []int{cID, cV}},
		{"s, id, f", []int{cS, cID, cF}},
	}
	orders := []struct {
		sql  string
		col  int
		desc bool
	}{{"", -1, false}, {" ORDER BY v", cV, false}, {" ORDER BY v DESC", cV, true},
		{" ORDER BY s", cS, false}, {" ORDER BY f DESC", cF, true}, {" ORDER BY id DESC", cID, true}}
	limits := []int{-1, 0, 1, 3, n - 1, n, n + 5}
	for _, p := range selPreds(pkHit) {
		where := ""
		if p.sql != "" {
			where = " WHERE " + p.sql
		}
		for _, o := range orders {
			for _, k := range limits {
				it := items[rng.Intn(len(items))]
				sql := fmt.Sprintf("SELECT %s FROM t%s%s", it.sql, where, o.sql)
				if k >= 0 {
					sql += fmt.Sprintf(" LIMIT %d", k)
				}
				res := mustExec(t, s, sql)
				if lent, err := s.ExecLent(sql); err != nil || !sameResult(lent, res) {
					t.Fatalf("%s: lent result %+v, %v; owned %+v", sql, lent, err, res)
				}
				want := referenceSelect(tb, txn, p.keep, o.col, o.desc, k, it.proj)
				if len(res.Rows) != len(want) || res.Tag != fmt.Sprintf("SELECT %d", len(want)) {
					t.Fatalf("%s: %s, %d rows; want %d rows", sql, res.Tag, len(res.Rows), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(res.Rows[i], want[i]) {
						t.Fatalf("%s: row %d = %v, want %v\ngot  %v\nwant %v", sql, i, res.Rows[i], want[i], res.Rows, want)
					}
					if cap(res.Rows[i]) != len(res.Rows[i]) {
						t.Fatalf("%s: row %d has spare capacity, so an append to it would overwrite the next", sql, i)
					}
				}
				cols := make([]string, len(it.proj))
				for i, ci := range it.proj {
					cols[i] = selColumns[ci]
				}
				if !slices.Equal(res.Columns, cols) {
					t.Fatalf("%s: columns %v, want %v", sql, res.Columns, cols)
				}
			}
		}
		// The aggregates fold the same matches; ORDER BY and LIMIT do not
		// apply to them.
		want := referenceSelect(tb, txn, p.keep, -1, false, -1, []int{cV, cF})
		var sumV int64
		var sumF float64
		for _, r := range want {
			if !r[0].IsNull() {
				sumV += r[0].Int
			}
			if !r[1].IsNull() {
				sumF += r[1].Float()
			}
		}
		for _, agg := range []struct {
			sql  string
			want sqlmini.Value
		}{
			{"COUNT(*)", sqlmini.NewInt(int64(len(want)))},
			{"SUM(v)", sqlmini.NewInt(sumV)},
			{"SUM(f)", sqlmini.NewFloat(sumF)},
		} {
			sql := fmt.Sprintf("SELECT %s FROM t%s LIMIT 0", agg.sql, where)
			res := mustExec(t, s, sql)
			if len(res.Rows) != 1 || res.Rows[0][0] != agg.want {
				t.Fatalf("%s = %v, want %v", sql, res.Rows, agg.want)
			}
			if lent, err := s.ExecLent(sql); err != nil || !sameResult(lent, res) {
				t.Fatalf("%s: lent result %+v, %v; owned %+v", sql, lent, err, res)
			}
		}
	}
}

// TestSelectMatchesReference checks the streaming executor (eachMatch
// feeding the top-k buffer, the aggregate fold, the LIMIT stop and the
// flat projection) against referenceSelect, over seeded tables that
// include the empty one, in autocommit and inside a transaction that reads
// its own uncommitted inserts, updates and deletes; and it checks that
// ExecLent lends the result Exec returns.
func TestSelectMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := newTestEngine(t)
		s, err := e.NewSession("shop")
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, grp INT, v INT, f FLOAT, s TEXT)")
		mustExec(t, s, "CREATE INDEX t_grp ON t (grp)")
		n := rng.Intn(40)
		if seed == 1 {
			n = 0
		}
		// Ids in random order, so the scans cover rows inserted out of key order.
		ids := rng.Perm(200)[:n]
		var vals []string
		for _, id := range ids {
			vals = append(vals, randSelRow(rng, int64(id)))
		}
		pkHit := int64(9999)
		if n > 0 {
			mustExec(t, s, "INSERT INTO t (id, grp, v, f, s) VALUES "+strings.Join(vals, ", "))
			pkHit = int64(ids[rng.Intn(n)])
		}

		// Autocommit: the reference reads its own snapshot of the same,
		// quiescent table.
		ref := s.db.mgr.Begin()
		checkSelects(t, s, ref, rng, n, pkHit)
		if _, err := ref.Commit(); err != nil {
			t.Fatal(err)
		}

		// In a transaction, after writes of its own: every statement and
		// the reference read the session's transaction.
		mustExec(t, s, "BEGIN")
		mustExec(t, s, fmt.Sprintf("INSERT INTO t (id, grp, v, f, s) VALUES %s, %s",
			randSelRow(rng, 300), randSelRow(rng, 301)))
		mustExec(t, s, "UPDATE t SET v = NULL WHERE grp = 1")
		mustExec(t, s, "UPDATE t SET v = v + 1 WHERE s = 'c'")
		mustExec(t, s, "DELETE FROM t WHERE v = 0")
		checkSelects(t, s, s.txn, rng, n+2, pkHit)
		mustExec(t, s, "ROLLBACK")
	}
}

// loadItems returns a session over a TPC-W-shaped item table of n rows
// with random stock levels, so a top-k buffer keeps being displaced.
func loadItems(tb testing.TB, n int) *Session {
	tb.Helper()
	e := New(Options{})
	tb.Cleanup(e.Close)
	if err := e.CreateDatabase("shop"); err != nil {
		tb.Fatal(err)
	}
	s, err := e.NewSession("shop")
	if err != nil {
		tb.Fatal(err)
	}
	exec := func(sql string) {
		if _, err := s.Exec(sql); err != nil {
			tb.Fatalf("Exec(%q): %v", sql, err)
		}
	}
	exec("CREATE TABLE item (i_id INT PRIMARY KEY, i_title TEXT, i_subject TEXT, i_stock INT)")
	rng := rand.New(rand.NewSource(int64(n)))
	var vals []string
	for id := 1; id <= n; id++ {
		vals = append(vals, fmt.Sprintf("(%d, 'title %d', 'S%d', %d)", id, id, id%20, rng.Intn(1000)))
		if len(vals) == 500 || id == n {
			exec("INSERT INTO item (i_id, i_title, i_subject, i_stock) VALUES " + strings.Join(vals, ", "))
			vals = vals[:0]
		}
	}
	return s
}

// bestSellers is the TPC-W BestSellers query's shape.
const bestSellers = "SELECT i_id, i_title, i_stock FROM item ORDER BY i_stock DESC LIMIT 10"

// selectCost reports the mallocs and heap bytes one run of sql allocates,
// after a warm-up run has filled the parse cache.
func selectCost(t *testing.T, s *Session, sql string) (allocs float64, bytes uint64) {
	t.Helper()
	run := func() {
		if _, err := s.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs = testing.AllocsPerRun(20, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestTopKAllocationIndependentOfTableSize pins the shape of the streaming
// executor's gain: the BestSellers query allocates per result row, not per
// row it reads, so a table ten times larger costs no more allocations and
// no more bytes beyond a small constant.
func TestTopKAllocationIndependentOfTableSize(t *testing.T) {
	smallAllocs, smallBytes := selectCost(t, loadItems(t, 2000), bestSellers)
	largeAllocs, largeBytes := selectCost(t, loadItems(t, 20000), bestSellers)
	t.Logf("2000 rows: %.0f allocs, %d B; 20000 rows: %.0f allocs, %d B", smallAllocs, smallBytes, largeAllocs, largeBytes)
	if largeAllocs > smallAllocs+2 {
		t.Errorf("allocations grow with the table: %.0f at 2000 rows, %.0f at 20000", smallAllocs, largeAllocs)
	}
	if largeBytes > smallBytes+1024 {
		t.Errorf("bytes grow with the table: %d B at 2000 rows, %d B at 20000", smallBytes, largeBytes)
	}
}

// TestScratchKeptOnlyWhileSmall: a session answers from buffers it keeps
// between statements, but keeps none above 64 KiB, so a SELECT of every
// row of a 4,000-row table — a match buffer of 94 KiB, a result of 500 KiB —
// leaves nothing that size pinned; and the match buffer holds no borrowed
// row once a statement is done.
func TestScratchKeptOnlyWhileSmall(t *testing.T) {
	s := loadItems(t, 4000)
	scratchBytes := func() map[string]int {
		return map[string]int{
			"matches": cap(s.matches) * int(unsafe.Sizeof(storage.Row{})),
			"proj":    cap(s.proj) * int(unsafe.Sizeof(0)),
			"cols":    cap(s.lent.cols) * int(unsafe.Sizeof("")),
			"heads":   cap(s.lent.heads) * int(unsafe.Sizeof([]sqlmini.Value{})),
			"vals":    cap(s.lent.vals) * int(unsafe.Sizeof(sqlmini.Value{})),
		}
	}
	noBorrowedRows := func(after string) {
		t.Helper()
		for i, r := range s.matches[:cap(s.matches)] {
			if r != nil {
				t.Fatalf("after %s the match buffer still holds row %d", after, i)
			}
		}
	}
	for _, sql := range []string{
		"SELECT i_id, i_title FROM item WHERE i_subject = 'S3' LIMIT 20",
		"SELECT i_id FROM item ORDER BY i_stock DESC LIMIT 10",
		"UPDATE item SET i_stock = 0 WHERE i_subject = 'S4'",
	} {
		if _, err := s.ExecLent(sql); err != nil {
			t.Fatal(err)
		}
		noBorrowedRows(sql)
	}
	small := scratchBytes()
	for name, n := range small {
		if n == 0 && name != "cols" {
			t.Errorf("after small statements the session keeps no %s buffer", name)
		}
	}
	for _, sql := range []string{"SELECT * FROM item ORDER BY i_stock", "SELECT * FROM item"} {
		res, err := s.ExecLent(sql)
		if err != nil || len(res.Rows) != 4000 {
			t.Fatalf("%s: %d rows, %v; want 4000", sql, len(res.Rows), err)
		}
		noBorrowedRows(sql)
		for name, n := range scratchBytes() {
			if n > maxKeptScratch {
				t.Errorf("after %s the session keeps a %d-byte %s buffer, want at most %d", sql, n, name, maxKeptScratch)
			}
		}
	}
}

// BenchmarkSelect measures the four read shapes of the TPC-W mix over the
// item table at two sizes: a point read, the BestSellers top-k, a COUNT
// and a filtered scan stopped by LIMIT.
func BenchmarkSelect(b *testing.B) {
	for _, n := range []int{2000, 20000} {
		s := loadItems(b, n)
		for _, q := range []struct{ name, sql string }{
			{"point", fmt.Sprintf("SELECT i_title, i_stock FROM item WHERE i_id = %d", n/2)},
			{"topk", bestSellers},
			{"count", "SELECT COUNT(*) FROM item WHERE i_stock > 500"},
			{"filtered", "SELECT i_id, i_title FROM item WHERE i_subject = 'S7' LIMIT 20"},
		} {
			b.Run(fmt.Sprintf("rows=%d/%s", n, q.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := s.Exec(q.sql); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
