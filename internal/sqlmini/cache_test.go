package sqlmini

import (
	"testing"
	"unsafe"
)

// shapeOf returns the shape of sql.
func shapeOf(t *testing.T, sql string) string {
	t.Helper()
	key, _, err := Shape(nil, nil, sql)
	if err != nil {
		t.Fatalf("Shape(%q): %v", sql, err)
	}
	return string(key)
}

// get is c.Get(shapeOf(sql)), failing on a parse error.
func get(t *testing.T, c *Cache, sql string) Statement {
	t.Helper()
	st, err := c.Get(shapeOf(t, sql))
	if err != nil {
		t.Fatalf("Get(%q): %v", sql, err)
	}
	return st
}

func TestCacheHitMissCounters(t *testing.T) {
	c := NewCache(8)
	first := get(t, c, "SELECT id FROM t WHERE id = 1")
	// Another literal is the same shape: a hit, and the same statement.
	if again := get(t, c, "SELECT id FROM t WHERE id = 2"); again != first {
		t.Fatal("a statement of a cached shape was parsed again")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Len != 1 {
		t.Fatalf("Stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	a := "SELECT id FROM t WHERE id = 1"
	b := "SELECT v FROM t WHERE id = 1"
	d := "SELECT w FROM t WHERE id = 1"
	get(t, c, a)
	get(t, c, b)
	get(t, c, a) // touch a so b becomes the LRU entry
	get(t, c, d)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	misses := c.Stats().Misses
	get(t, c, a)
	get(t, c, d)
	if got := c.Stats().Misses; got != misses {
		t.Errorf("a (recently used) or d (just added) was evicted: %d more misses", got-misses)
	}
	get(t, c, b)
	if got := c.Stats().Misses; got != misses+1 {
		t.Error("b should have been evicted as LRU")
	}
}

func TestCacheDDLNotCached(t *testing.T) {
	c := NewCache(8)
	for _, sql := range []string{
		"CREATE TABLE t (id INT PRIMARY KEY)",
		"DROP TABLE t",
		"CREATE INDEX idx ON t (id)",
		"DROP INDEX idx ON t",
		"INSERT INTO t (id) VALUES (1), (2)",
	} {
		get(t, c, sql)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
}

func TestCacheInvalidateTable(t *testing.T) {
	c := NewCache(16)
	stmts := map[string]string{
		"SELECT id FROM t WHERE id = 1":   "t",
		"UPDATE t SET v = 2 WHERE id = 1": "t",
		"SELECT id FROM u WHERE id = 1":   "u",
		"BEGIN":                           "",
	}
	for sql := range stmts {
		get(t, c, sql)
	}
	if n := c.InvalidateTable("t"); n != 2 {
		t.Fatalf("InvalidateTable(t) = %d, want 2", n)
	}
	for sql, table := range stmts {
		misses := c.Stats().Misses
		get(t, c, sql)
		hit := c.Stats().Misses == misses
		if table == "t" && hit {
			t.Errorf("%q survived invalidation of t", sql)
		}
		if table != "t" && !hit {
			t.Errorf("%q was wrongly flushed", sql)
		}
	}
}

// TestCacheOwnsItsStatements: a cached statement is parsed from the cache's
// own copy of its shape, so overwriting the caller's key, as a session does
// with its next statement, changes nothing the cache holds.
func TestCacheOwnsItsStatements(t *testing.T) {
	c := NewCache(4)
	key := []byte(shapeOf(t, "SELECT v FROM t WHERE id = 1"))
	want := "SELECT v FROM t WHERE (id = $1)"
	st, err := c.Get(unsafe.String(&key[0], len(key)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range key {
		key[i] = 'x'
	}
	if got := st.String(); got != want {
		t.Errorf("cached statement reads %s after its key was overwritten, want %s", got, want)
	}
}

func TestCacheNilIsDisabled(t *testing.T) {
	var c *Cache
	if c != NewCache(0) || c != NewCache(-1) {
		t.Fatal("NewCache(<=0) should return nil")
	}
	if _, ok := get(t, c, "BEGIN").(*Begin); !ok {
		t.Error("nil cache did not parse")
	}
	if c.InvalidateTable("t") != 0 || c.Len() != 0 {
		t.Error("nil cache should report zero everywhere")
	}
	c.Reset()
	if st := c.Stats(); st != (CacheStats{}) {
		t.Errorf("nil Stats = %+v", st)
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(4)
	sql := "SELECT id FROM t WHERE id = 1"
	get(t, c, sql)
	get(t, c, sql)
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Len after Reset = %d", c.Len())
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Errorf("counters should survive Reset, got %+v", st)
	}
}
