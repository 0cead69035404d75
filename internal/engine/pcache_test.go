package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"madeus/internal/sqlmini"
)

// TestParseCacheSharedStatementConcurrent runs the same UPDATE text from
// two sessions at once. Both sessions execute the identical cached AST, so
// any mutation of the shared statement during execution is a data race
// this test exposes under -race.
func TestParseCacheSharedStatementConcurrent(t *testing.T) {
	e := newTestEngine(t)
	s1, _ := e.NewSession("shop")
	s2, _ := e.NewSession("shop")
	mustExec(t, s1, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s1, "INSERT INTO t (id, v) VALUES (1, 0)")
	mustExec(t, s1, "INSERT INTO t (id, v) VALUES (2, 0)")

	// Warm the cache so both goroutines hit the shared entry.
	const upd1 = "UPDATE t SET v = v + 1 WHERE id = 1"
	const upd2 = "UPDATE t SET v = v + 1 WHERE id = 2"
	mustExec(t, s1, upd1)
	mustExec(t, s1, upd2)

	var wg sync.WaitGroup
	run := func(s *Session, sql string) {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := s.Exec(sql); err != nil {
				t.Errorf("Exec(%q): %v", sql, err)
				return
			}
		}
	}
	wg.Add(2)
	go run(s1, upd1)
	go run(s2, upd2)
	wg.Wait()

	res := mustExec(t, s1, "SELECT v FROM t WHERE id = 1")
	if res.Rows[0][0].Int != 201 {
		t.Errorf("id=1 v = %v, want 201", res.Rows[0][0])
	}
	res = mustExec(t, s1, "SELECT v FROM t WHERE id = 2")
	if res.Rows[0][0].Int != 201 {
		t.Errorf("id=2 v = %v, want 201", res.Rows[0][0])
	}
	if st := s1.db.ParseCacheStats(); st.Hits == 0 {
		t.Error("expected cache hits during the concurrent run")
	}
}

// TestParseCacheDDLInvalidation checks that every DDL form flushes cached
// statements targeting its table, and only those.
func TestParseCacheDDLInvalidation(t *testing.T) {
	e := newTestEngine(t)
	s, _ := e.NewSession("shop")
	mustExec(t, s, "CREATE TABLE a (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "CREATE TABLE b (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO a (id, v) VALUES (1, 1)")
	mustExec(t, s, "INSERT INTO b (id, v) VALUES (1, 1)")

	// cached reports whether the shape of sql is cached: whether running it
	// would be a hit. It asks the cache for the shape, and so caches it.
	cached := func(sql string) bool {
		key, _, err := sqlmini.Shape(nil, nil, sql)
		if err != nil {
			t.Fatal(err)
		}
		before := s.db.ParseCacheStats().Hits
		if _, err := s.db.pcache.Get(string(key)); err != nil {
			t.Fatal(err)
		}
		return s.db.ParseCacheStats().Hits > before
	}
	warm := func() {
		mustExec(t, s, "SELECT v FROM a WHERE id = 1")
		mustExec(t, s, "SELECT v FROM b WHERE id = 1")
	}

	warm()
	mustExec(t, s, "CREATE INDEX av ON a (v)")
	if cached("SELECT v FROM a WHERE id = 1") {
		t.Error("CREATE INDEX did not flush cached statements on a")
	}
	if !cached("SELECT v FROM b WHERE id = 1") {
		t.Error("CREATE INDEX on a flushed statements on b")
	}

	warm()
	mustExec(t, s, "DROP INDEX av ON a")
	if cached("SELECT v FROM a WHERE id = 1") {
		t.Error("DROP INDEX did not flush cached statements on a")
	}

	warm()
	mustExec(t, s, "DROP TABLE a")
	if cached("SELECT v FROM a WHERE id = 1") {
		t.Error("DROP TABLE did not flush cached statements on a")
	}
	if !cached("SELECT v FROM b WHERE id = 1") {
		t.Error("DROP TABLE a flushed statements on b")
	}

	// Re-creating a flushes again (a statement cached between DROP and
	// CREATE would otherwise survive into the new table's lifetime).
	mustExec(t, s, "SELECT v FROM b WHERE id = 1")
	mustExec(t, s, "CREATE TABLE a (id INT PRIMARY KEY, v INT)")
	if cached("SELECT v FROM a WHERE id = 1") {
		t.Error("CREATE TABLE did not flush cached statements on a")
	}
}

// TestParseCacheBoundedUnderChurn: distinct statement shapes beyond the
// cache capacity never grow the map past the bound. Statement i adds to v
// thirteen zeros, each an INT or a FLOAT as the bits of i say, so every
// statement is a shape of its own.
func TestParseCacheBoundedUnderChurn(t *testing.T) {
	e := New(Options{LockTimeout: time.Second})
	t.Cleanup(e.Close)
	if err := e.CreateDatabase("shop"); err != nil {
		t.Fatal(err)
	}
	s, _ := e.NewSession("shop")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (1, 1)")
	for i := 0; i < parseCacheEntries+500; i++ {
		var sum strings.Builder
		for bit := 0; bit < 13; bit++ {
			sum.WriteString([]string{" + 0", " + 0.0"}[i>>bit&1])
		}
		mustExec(t, s, fmt.Sprintf("SELECT v FROM t WHERE id = %d AND v%s >= 0", i, sum.String()))
	}
	if st := s.db.ParseCacheStats(); st.Len != parseCacheEntries {
		t.Errorf("cache len after churn = %d, want exactly the %d-entry bound: %+v", st.Len, parseCacheEntries, st)
	}
}

// TestParseCacheSkipsDumpInserts: a dump's multi-row INSERTs can never run
// twice, so restoring one into a fresh database must not admit them — the
// cache is for what the tenant repeats, and single-row statements still hit.
func TestParseCacheSkipsDumpInserts(t *testing.T) {
	e := newTestEngine(t)
	src, _ := e.NewSession("shop")
	mustExec(t, src, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	for base := 0; base < 120; base += 40 { // 120 rows: dump batches of 50, 50, 20
		vals := make([]string, 40)
		for i := range vals {
			vals[i] = fmt.Sprintf("(%d, %d)", base+i, base+i)
		}
		mustExec(t, src, "INSERT INTO t (id, v) VALUES "+strings.Join(vals, ", "))
	}
	if st := src.db.ParseCacheStats(); st.Len != 0 {
		t.Errorf("multi-row INSERTs were admitted on the source: %+v", st)
	}
	script, err := src.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if len(script) != 4 { // CREATE TABLE + three INSERT batches
		t.Fatalf("dump has %d statements, want 4: %v", len(script), script)
	}

	if err := e.CreateDatabase("copy"); err != nil {
		t.Fatal(err)
	}
	dst, _ := e.NewSession("copy")
	if err := dst.Restore(script); err != nil {
		t.Fatal(err)
	}
	if st := dst.db.ParseCacheStats(); st.Len != 0 {
		t.Errorf("restore left %d statements in the parse cache, want 0: %+v", st.Len, st)
	}

	const ins = "INSERT INTO t (id, v) VALUES (1000, 1)"
	const sel = "SELECT v FROM t WHERE id = 7"
	mustExec(t, dst, ins)
	mustExec(t, dst, sel)
	mustExec(t, dst, "DELETE FROM t WHERE id = 1000")
	before := dst.db.ParseCacheStats()
	if before.Len != 3 {
		t.Errorf("cache holds %d statements after three single-row ones, want 3", before.Len)
	}
	mustExec(t, dst, ins)
	mustExec(t, dst, sel)
	if after := dst.db.ParseCacheStats(); after.Hits != before.Hits+2 || after.Len != before.Len {
		t.Errorf("repeated single-row INSERT and SELECT: %+v -> %+v, want two more hits", before, after)
	}
}
