package sqlmini

import (
	"strings"
	"sync"
)

// Cache is a bounded LRU parse cache keyed on statement shape (see Shape)
// — the C-JDBC trick for middleware-side statement processing, with the
// literals taken out: a TPC-W mix draws its statements from a few dozen
// shapes, so after its first statement of each the parser drops out of the
// per-statement path, and the cache stays a few dozen entries however wide
// the id domains the literals come from.
//
// A cached statement holds a Param where its text had a literal, and is
// shared across sessions: execution binds each statement's arguments
// without writing the tree (the race-enabled concurrent-execution test pins
// this). It is parsed from the cache's own copy of its shape, so every name
// it holds is memory the cache owns, and nothing in it aliases the text a
// client sent. DDL on a table invalidates every cached statement targeting
// it.
//
// A nil *Cache is valid and means "caching disabled": Get parses every
// shape, and the other methods are cheap no-ops.
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

// Get returns ParseShape(key): the cached statement, promoted to most
// recently used, or on a miss a new parse. One that Cacheable admits is
// parsed again from the cache's own copy of key and cached, evicting the
// least recently used entry at capacity; any other is returned as parsed
// from key, whose memory it shares, for the caller to run and drop. Get
// keeps nothing of key itself.
func (c *Cache) Get(key string) (Statement, error) {
	if c != nil {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.hits++
			c.moveToFront(e)
			st := e.st
			c.mu.Unlock()
			return st, nil
		}
		c.misses++
		c.mu.Unlock()
	}
	st, err := ParseShape(key)
	if err != nil || c == nil || !Cacheable(st) {
		return st, err
	}
	key = strings.Clone(key)
	if st, err = ParseShape(key); err != nil {
		return nil, err
	}
	c.put(key, st)
	return st, nil
}

// put caches st under key, which the cache owns.
func (c *Cache) put(key string, st Statement) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok { // another session's miss cached it first
		c.moveToFront(e)
		return
	}
	e := &cacheEntry{key: key, st: st, table: TargetTable(st)}
	c.entries[key] = e
	c.pushFront(e)
	if len(c.entries) > c.cap {
		lru := c.tail
		c.remove(lru)
		delete(c.entries, lru.key)
	}
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
// invalidation story for no win. A multi-row INSERT is a dump or load batch:
// its shape holds a slot per value, kilobytes of key for a statement that
// runs once per batch, and admitting one would evict a statement the
// tenant does repeat.
func Cacheable(st Statement) bool {
	switch st := st.(type) {
	case *CreateTable, *DropTable, *CreateIndex, *DropIndex:
		return false
	case *Insert:
		return len(st.Values)+len(st.Rows)+st.ArgRows == 1
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
