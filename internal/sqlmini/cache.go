package sqlmini

import "sync"

// Cache is a bounded LRU parse cache keyed on exact statement text — the
// C-JDBC trick for middleware-side statement processing: the TPC-W mix
// draws its literals from bounded id domains, so hot statements repeat
// verbatim and the lexer/parser drop out of the per-statement path.
//
// Cached statements are shared across sessions and MUST be treated as
// immutable by execution (the engine's evaluators only read the AST; the
// race-enabled concurrent-execution test pins this). DDL on a table
// invalidates every cached statement targeting it.
//
// A nil *Cache is valid and means "caching disabled": every method is a
// cheap no-op.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry
	head    *cacheEntry // most recently used
	tail    *cacheEntry // least recently used
	hits    uint64
	misses  uint64
}

type cacheEntry struct {
	key        string
	st         Statement
	table      string // target table, for DDL invalidation; "" when none
	prev, next *cacheEntry
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits   uint64
	Misses uint64
	Len    int
}

// NewCache returns a parse cache bounded to capacity entries, or nil
// (caching disabled) when capacity <= 0. The map grows with its entries:
// sized for capacity up front, an empty cache would be 200 KB of buckets
// the collector scans every cycle, one more for each database created.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	return &Cache{cap: capacity, entries: make(map[string]*cacheEntry)}
}

// Get returns the cached parse of sql, promoting the entry to most
// recently used.
func (c *Cache) Get(sql string) (Statement, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	e, ok := c.entries[sql]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.hits++
	c.moveToFront(e)
	st := e.st
	c.mu.Unlock()
	return st, true
}

// Put caches the parse of sql, evicting the least recently used entry at
// capacity. Statements that cannot repeat are not admitted (see Cacheable).
func (c *Cache) Put(sql string, st Statement) {
	if c == nil || !Cacheable(st) {
		return
	}
	c.mu.Lock()
	if e, ok := c.entries[sql]; ok {
		e.st = st
		e.table = TargetTable(st)
		c.moveToFront(e)
		c.mu.Unlock()
		return
	}
	e := &cacheEntry{key: sql, st: st, table: TargetTable(st)}
	c.entries[sql] = e
	c.pushFront(e)
	if len(c.entries) > c.cap {
		lru := c.tail
		c.remove(lru)
		delete(c.entries, lru.key)
	}
	c.mu.Unlock()
}

// InvalidateTable drops every cached statement targeting the named table.
// Called by DDL execution (CREATE/DROP TABLE, CREATE/DROP INDEX).
func (c *Cache) InvalidateTable(table string) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	n := 0
	for key, e := range c.entries {
		if e.table == table {
			c.remove(e)
			delete(c.entries, key)
			n++
		}
	}
	c.mu.Unlock()
	return n
}

// Reset empties the cache (counters survive).
func (c *Cache) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.entries = make(map[string]*cacheEntry, c.cap)
	c.head, c.tail = nil, nil
	c.mu.Unlock()
}

// Stats returns hit/miss counters and the current size.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Len: len(c.entries)}
}

// Len reports the number of cached statements.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *Cache) moveToFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.remove(e)
	c.pushFront(e)
}

func (c *Cache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) remove(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// Cacheable reports whether a statement may be cached. DML and transaction
// control repeat. DDL runs once, and caching it would complicate its own
// invalidation story for no win. A multi-row INSERT is a dump batch being
// restored: its text names a batch of primary keys, so it can never run
// twice, and admitting one would evict a statement the tenant does repeat
// and keep kilobytes of text and AST live for nothing.
//
// A statement this admits may be shared read-only across sessions, so
// ParseInto never lets one alias the caller's array.
func Cacheable(st Statement) bool {
	switch st := st.(type) {
	case *CreateTable, *DropTable, *CreateIndex, *DropIndex:
		return false
	case *Insert:
		return len(st.Values)+len(st.Rows) == 1
	case nil:
		return false
	}
	return true
}

// TargetTable returns the table a statement reads or writes ("" for
// statements without one, e.g. BEGIN). Used for cache invalidation.
func TargetTable(st Statement) string {
	switch st := st.(type) {
	case *Insert:
		return st.Table
	case *Select:
		return st.Table
	case *Update:
		return st.Table
	case *Delete:
		return st.Table
	case *CreateTable:
		return st.Table
	case *DropTable:
		return st.Table
	case *CreateIndex:
		return st.Table
	case *DropIndex:
		return st.Table
	}
	return ""
}
