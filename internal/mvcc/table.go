package mvcc

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"madeus/internal/invariant"
	"madeus/internal/sqlmini"
	"madeus/internal/storage"
)

// version is one physical tuple version in a row chain. Its row is in the
// table's pages (page.go), so a version holds no pointer.
type version struct {
	xmin TxnID // creator
	xmax TxnID // deleter/updater; 0 when live
	ref  ref   // where its row is encoded
}

// rowChain holds all versions of one logical row (one primary key) plus the
// row write lock used for first-updater-wins. Lock ordering: a row-map
// stripe mutex is never held while a rowChain.mu is held, and at most one
// rowChain.mu is held at a time; row-lock *waits* happen on waiter channels
// with ch.mu released, so mutexes are never held across blocking waits.
//
// A chain holds no pointer (DESIGN.md §5i "Chain directory"), so the
// collector never walks the chain arrays however many rows they file. A
// row that is never updated and never waited for keeps its one version in
// first; any other keeps its versions and waiters in an extension of the
// table's (see chainExt), named by ext. Both are guarded by mu.
type rowChain struct {
	mu        sync.Mutex //madeusvet:lockrank mvcc-row 42
	lockOwner TxnID
	first     [1]version
	n         uint32 // versions in first, while ext is 0
	ext       uint32 // 1 + the index of the chain's extension, or 0
}

// chainExt is what a chain holds beyond one version: all its versions,
// oldest first, and the channels of the transactions waiting for its row
// lock. A chain keeps the extension it was given, and an extension never
// moves (see Table.extOf).
type chainExt struct {
	versions []version
	waiters  []chan struct{}
}

// extChunk is how many extensions one array of a table's holds.
const extChunk = 64

// tableStripe is one shard of the chain directory. Single-stripe operations
// pick a key's stripe (stripeFor); cross-stripe operations (index DDL) take
// stripes in index order via lockAllStripes.
//
// INT keys, every TPC-W key among them, are filed by block in an
// int64-keyed map, and keys of the other kinds in a Value-keyed one. Both
// are made on first use and reached only through block and put.
type tableStripe struct {
	mu   sync.Mutex            //madeusvet:lockrank mvcc-table 40 striped
	ints map[int64]*chainBlock // by k >> blockShift
	rows map[sqlmini.Value]*chainBlock

	// cursor is the page the stripe's rows are encoded into.
	cursor pageCursor
}

// block returns the block filing pk, or nil. Caller holds s.mu.
func (s *tableStripe) block(pk sqlmini.Value) *chainBlock {
	if pk.Kind == sqlmini.KindInt {
		return s.ints[pk.Int>>blockShift]
	}
	return s.rows[pk]
}

// put files b, the block of pk. Caller holds s.mu.
func (s *tableStripe) put(pk sqlmini.Value, b *chainBlock) {
	if pk.Kind == sqlmini.KindInt {
		if s.ints == nil {
			s.ints = make(map[int64]*chainBlock)
		}
		s.ints[pk.Int>>blockShift] = b
		return
	}
	if s.rows == nil {
		s.rows = make(map[sqlmini.Value]*chainBlock)
	}
	s.rows[pk] = b
}

// blockKeys consecutive INT keys, those that agree above their low
// blockShift bits, share a block of the chain directory, a stripe, and
// so a chain array and a page.
const (
	blockShift = 6
	blockKeys  = 1 << blockShift
)

// chainBlock is one entry of the chain directory (DESIGN.md §5i "Chain
// directory"). An INT block holds the chains of the keys first …
// first+blockKeys-1, key k in slot k-first; a key of another kind is the
// one slot of a block of its own.
//
// The block owns its chains: they are in the arrays it allocated them in,
// slot i's at arrays[at[i]>>8][at[i]&0xff], so the block holds a pointer
// per array, not per chain. A slot is set once, under the lock of the
// block's stripe, and its bit in used only after it, so a reader that
// loads used finds every slot it marks with no lock. Blocks, like chains,
// are never removed.
type chainBlock struct {
	first  sqlmini.Value // the least key the block can hold
	used   atomic.Uint64 // bit i is set once slot i is
	arrays [][]rowChain
	at     []uint16
	// Guarded by the stripe's lock: arrays allocated, chains they hold,
	// and chains of the last one not handed out yet.
	narrays, made, left int
}

// blockArrays bounds a block's chain arrays: each new one is at least as
// long as all before it together (see newChain), so blockKeys chains take
// at most 1+blockShift of them.
const blockArrays = 1 + blockShift

// intBlock and keyBlock are a block and its slot tables in one allocation;
// a keyBlock's one chain is in it too.
type intBlock struct {
	chainBlock
	arr [blockArrays][]rowChain
	loc [blockKeys]uint16
}

type keyBlock struct {
	chainBlock
	arr   [1][]rowChain
	loc   [1]uint16
	chain [1]rowChain
}

// newBlock returns the empty block pk belongs in.
func newBlock(pk sqlmini.Value) *chainBlock {
	if pk.Kind == sqlmini.KindInt {
		b := &intBlock{}
		b.first, b.arrays, b.at = sqlmini.NewInt(pk.Int&^(blockKeys-1)), b.arr[:], b.loc[:]
		return &b.chainBlock
	}
	b := &keyBlock{}
	b.first, b.arrays, b.at = pk, b.arr[:], b.loc[:]
	b.arr[0] = b.chain[:]
	b.narrays, b.made, b.left = 1, 1, 1
	return &b.chainBlock
}

// slotOf returns the slot of pk in its block.
func slotOf(pk sqlmini.Value) int {
	if pk.Kind == sqlmini.KindInt {
		return int(pk.Int & (blockKeys - 1))
	}
	return 0
}

// key returns the key of slot i.
func (b *chainBlock) key(i int) sqlmini.Value {
	if b.first.Kind == sqlmini.KindInt {
		return sqlmini.NewInt(b.first.Int + int64(i))
	}
	return b.first
}

// has reports whether slot i holds a chain. Caller holds the lock of the
// block's stripe.
func (b *chainBlock) has(i int) bool { return b.used.Load()&(1<<i) != 0 }

// chain returns slot i's chain. The caller holds the lock of the block's
// stripe or has loaded a used with bit i set.
func (b *chainBlock) chain(i int) *rowChain {
	at := b.at[i]
	return &b.arrays[at>>8][at&0xff]
}

// newChain sets slot i to a new empty chain and returns it; the caller
// sets i's bit in used once the chain is whole (fill does both). want is
// how many chains the caller is about to take, this one included: when the
// last array is used up, the next holds at least that many, and at least
// as many as the block allocated before, so chains come in few arrays and
// a block of sparse keys holds few spare. Caller holds the lock of the
// block's stripe.
func (b *chainBlock) newChain(i, want int) *rowChain {
	if b.left == 0 {
		n := min(max(want, b.made, 1), len(b.at)-b.made)
		b.arrays[b.narrays] = make([]rowChain, n)
		b.narrays++
		b.made += n
		b.left = n
	}
	k := b.narrays - 1
	j := len(b.arrays[k]) - b.left
	b.left--
	b.at[i] = uint16(k<<8 | j)
	return &b.arrays[k][j]
}

// fill sets slot i to a new empty chain, marks it used and returns it.
// Caller holds the lock of the block's stripe.
func (b *chainBlock) fill(i int) *rowChain {
	ch := b.newChain(i, 1)
	b.used.Store(b.used.Load() | 1<<i)
	return ch
}

// Table is an MVCC table: a schema plus row chains filed by primary key in
// a striped chain directory (DESIGN.md §5i).
type Table struct {
	Schema *storage.Schema

	mgr     *Manager
	mask    uint64
	stripes []tableStripe

	// The spine of the chain directory (DESIGN.md §5i): run holds blocks
	// in strict order of their first keys; runs holds the blocks created
	// since the last scan that did not extend run, as further strictly
	// ascending runs ordered by their last blocks. Blocks are never
	// removed. run is only ever appended to in place or replaced wholesale
	// by mergeRuns, so entries below a length observed under spineMu never
	// change and a scan walks that prefix without copying it. spineMu is
	// the innermost lock: a block is inserted under its stripe's lock, in
	// the section that files it, so no chain is reachable by key before
	// its block is reachable by a scan; nothing is taken under spineMu.
	spineMu sync.Mutex //madeusvet:lockrank mvcc-spine 49
	run     []*chainBlock
	runs    [][]*chainBlock

	// The table's pages (page.go), indexed by page number; pagesMu
	// serialises their growth, compactMu whole compactions.
	pages     atomic.Pointer[[][]byte]
	pagesMu   sync.Mutex //madeusvet:lockrank mvcc-pages 48
	compactMu sync.Mutex //madeusvet:lockrank mvcc-compact 38
	// deadBytes counts the bytes of rows whose versions were removed since
	// the last compaction.
	deadBytes atomic.Int64

	// imu serialises index DDL. indexes is the immutable list of
	// secondary indexes, replaced wholesale by CreateIndex/DropIndex
	// under imu and loaded lock-free by everything else (nil while the
	// table has none).
	imu     sync.Mutex //madeusvet:lockrank mvcc-tableidx 45
	indexes atomic.Pointer[[]*colIndex]

	// The chains' extensions (chainExt), extChunk to an array; a chain
	// names its by index. Arrays are only ever added, each list of them
	// published whole, so an extension never moves and is found with no
	// lock. extMu serialises handing them out, under a chain's lock; nexts
	// counts those handed out.
	extMu sync.Mutex //madeusvet:lockrank mvcc-ext 46
	exts  atomic.Pointer[[]*[extChunk]chainExt]
	nexts int
}

// NewTable creates an empty MVCC table bound to a transaction manager,
// inheriting the manager's stripe count.
func NewTable(schema *storage.Schema, mgr *Manager) *Table {
	n := mgr.tableStripes
	if n < 1 {
		n = 1
	}
	tb := &Table{
		Schema:  schema,
		mgr:     mgr,
		mask:    uint64(n - 1),
		stripes: make([]tableStripe, n),
	}
	tb.pages.Store(new([][]byte))
	tb.exts.Store(new([]*[extChunk]chainExt))
	return tb
}

// versions returns ch's versions, oldest first. Caller holds ch.mu; the
// slice is ch's, valid and writable while the caller holds it.
func (tb *Table) versions(ch *rowChain) []version {
	if ch.ext != 0 {
		return tb.ext(ch).versions
	}
	return ch.first[:ch.n]
}

// setVersions makes vs ch's versions; vs may be a slice versions returned,
// cut or appended to. Caller holds ch.mu.
func (tb *Table) setVersions(ch *rowChain, vs []version) {
	switch {
	case ch.ext != 0:
		tb.ext(ch).versions = vs
	case len(vs) <= 1:
		ch.n = uint32(copy(ch.first[:], vs))
	default:
		tb.newExt(ch).versions = vs
	}
}

// ext returns ch's extension. Caller holds ch.mu, and ch has one.
func (tb *Table) ext(ch *rowChain) *chainExt {
	i := int(ch.ext - 1)
	return &(*tb.exts.Load())[i/extChunk][i%extChunk]
}

// extOf returns ch's extension, giving ch one that holds its versions when
// it has none. Caller holds ch.mu.
func (tb *Table) extOf(ch *rowChain) *chainExt {
	if ch.ext != 0 {
		return tb.ext(ch)
	}
	vs := slices.Clone(ch.first[:ch.n])
	e := tb.newExt(ch)
	e.versions = vs
	return e
}

// newExt gives ch, which has no extension, an empty one and returns it.
// Caller holds ch.mu.
func (tb *Table) newExt(ch *rowChain) *chainExt {
	tb.extMu.Lock()
	arrays := *tb.exts.Load()
	if tb.nexts == len(arrays)*extChunk {
		arrays = append(slices.Clip(arrays), new([extChunk]chainExt))
		tb.exts.Store(&arrays)
	}
	i := tb.nexts
	tb.nexts++
	tb.extMu.Unlock()
	ch.ext, ch.n = uint32(i+1), 0
	return &arrays[i/extChunk][i%extChunk]
}

// FNV-1a, inlined so key hashing allocates nothing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvU64(h uint64, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(x>>(8*i)))
	}
	return h
}

// hashValue hashes a primary key that is not an INT to pick a stripe. Keys
// of one table share a kind (CheckRow enforces it), so mixing the kind only
// guards against degenerate cross-kind collisions.
func hashValue(v sqlmini.Value) uint64 {
	h := fnvByte(fnvOffset, byte(v.Kind))
	if v.Kind == sqlmini.KindText {
		for i := 0; i < len(v.Str); i++ {
			h = fnvByte(h, v.Str[i])
		}
		return h
	}
	return fnvU64(h, uint64(v.Int)) // FLOAT bits, BOOL 0/1, NULL 0
}

// stripeFor returns the stripe pk is filed in. An INT key's is its block's,
// so the keys of a block share a stripe and, through it, a chain array and
// a page, which a scan in key order then reads straight through; writers of
// different key ranges, such as restore appliers, still spread over every
// stripe. Another key's stripe is picked by its hash.
func (tb *Table) stripeFor(pk sqlmini.Value) *tableStripe {
	if pk.Kind == sqlmini.KindInt {
		return &tb.stripes[uint64(pk.Int>>blockShift)&tb.mask]
	}
	return &tb.stripes[hashValue(pk)&tb.mask]
}

// Stripes reports the row-map stripe count (observability and tests).
func (tb *Table) Stripes() int { return len(tb.stripes) }

// lockAllStripes acquires every row-map stripe in index order. This is the
// stripe-order invariant (DESIGN.md §5i): every cross-stripe section walks
// stripes 0..n-1, so two cross-stripe operations can never deadlock
// against each other, and a single-stripe operation (which holds at most
// one stripe) can never participate in a cycle. It is a cross-stripe
// section: every stripe is held on return, and unlockAllStripes is the
// paired release.
func (tb *Table) lockAllStripes() {
	for i := range tb.stripes {
		tb.stripes[i].mu.Lock()
	}
}

// unlockAllStripes releases every stripe in reverse order.
func (tb *Table) unlockAllStripes() {
	for i := len(tb.stripes) - 1; i >= 0; i-- {
		tb.stripes[i].mu.Unlock()
	}
}

func (tb *Table) chain(pk sqlmini.Value, create bool) *rowChain {
	_, ch := tb.chainIn(tb.stripeFor(pk), pk, create)
	return ch
}

// chainIn is chain with pk's stripe s already picked, returning as well the
// block that files the chain (slot slotOf(pk) of it), or nil with no chain. A
// TEXT key is filed as a copy, so the directory never keeps the caller's
// statement text alive.
func (tb *Table) chainIn(s *tableStripe, pk sqlmini.Value, create bool) (*chainBlock, *rowChain) {
	s.mu.Lock()
	b := s.block(pk)
	var ch *rowChain
	if i := slotOf(pk); b != nil && b.has(i) {
		ch = b.chain(i)
	} else if create {
		if b == nil {
			if pk.Kind == sqlmini.KindText {
				pk.Str = strings.Clone(pk.Str)
			}
			b = newBlock(pk)
			s.put(pk, b)
			tb.spineInsert(b)
		}
		ch = b.fill(i)
	}
	s.mu.Unlock()
	if ch == nil {
		return nil, nil
	}
	return b, ch
}

// spineInsert adds a new block to the spine: onto the run — the main one or
// a pending one — whose last block is the greatest below b, or as a new
// pending run when every run ends above b. A restore applier lands a
// chunk's ascending keys, so each applier's blocks extend one run, and a
// key-ordered load never leaves the main run. Runs stay ordered by last
// block (b is below the next run's last, or that run would have been
// picked), so the pick is a binary search. Nothing moves an existing entry.
// The map insert under the stripe lock already deduplicated creators, so
// each block is inserted exactly once. Caller holds b's stripe lock.
func (tb *Table) spineInsert(b *chainBlock) {
	last := func(r []*chainBlock) sqlmini.Value { return r[len(r)-1].first }
	tb.spineMu.Lock()
	// j is the number of pending runs whose last block is below b.
	j, _ := slices.BinarySearchFunc(tb.runs, b.first, func(r []*chainBlock, first sqlmini.Value) int {
		return comparePK(last(r), first)
	})
	n := len(tb.run)
	switch mainBelow := n == 0 || comparePK(last(tb.run), b.first) < 0; {
	case j > 0 && (!mainBelow || n > 0 && comparePK(last(tb.runs[j-1]), last(tb.run)) > 0):
		tb.runs[j-1] = append(tb.runs[j-1], b)
	case mainBelow:
		tb.run = append(tb.run, b)
	default:
		tb.runs = slices.Insert(tb.runs, 0, []*chainBlock{b})
	}
	tb.spineMu.Unlock()
}

// mergeRuns merges the pending runs and the main run into a freshly
// allocated main run, leaving the old backing array untouched for the scans
// still walking it. O(n log r) for n blocks in r runs, which only a scan —
// itself O(n) — ever pays. Caller holds spineMu.
func (tb *Table) mergeRuns() {
	runs := append(tb.runs, tb.run)
	created := 0
	for _, r := range runs {
		created += len(r)
	}
	merged := make([]*chainBlock, 0, created)
	// h is a binary min-heap of the runs not yet used up, by their heads.
	h := slices.DeleteFunc(runs, func(r []*chainBlock) bool { return len(r) == 0 })
	less := func(a, b int) bool { return comparePK(h[a][0].first, h[b][0].first) < 0 }
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && less(c+1, c) {
				c++
			}
			if !less(c, i) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(h) > 0 {
		merged = append(merged, h[0][0])
		if h[0] = h[0][1:]; len(h[0]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	tb.run, tb.runs = merged, nil
	invariant.Check(func() error { return checkRun(merged, created) })
}

// checkRun verifies that a merge neither lost, duplicated nor misordered a
// block: the run is strictly ascending and holds every block created.
// Invariants builds only.
func checkRun(run []*chainBlock, created int) error {
	if len(run) != created {
		return fmt.Errorf("mvcc: chain directory holds %d blocks after a merge, %d were created", len(run), created)
	}
	for i := 1; i < len(run); i++ {
		if comparePK(run[i-1].first, run[i].first) >= 0 {
			return fmt.Errorf("mvcc: chain directory not strictly ascending at %d: %v then %v", i, run[i-1].first, run[i].first)
		}
	}
	return nil
}

// scanRun returns the spine's blocks in primary-key order, merging the
// pending runs first when there are any. The slice is borrowed, not copied:
// its capacity is clipped to its length, later in-order inserts append past
// that length and a later merge builds a new array, so the caller may walk
// it with no lock held but must not write to it.
func (tb *Table) scanRun() []*chainBlock {
	tb.spineMu.Lock()
	if len(tb.runs) > 0 {
		tb.mergeRuns()
	}
	run := slices.Clip(tb.run)
	tb.spineMu.Unlock()
	return run
}

// comparePK orders primary keys with an integer fast path. Keys of one
// table share a kind (CheckRow enforces it), so the error from the
// general comparison cannot fire.
func comparePK(a, b sqlmini.Value) int {
	if a.Kind == sqlmini.KindInt && b.Kind == sqlmini.KindInt {
		switch {
		case a.Int < b.Int:
			return -1
		case a.Int > b.Int:
			return 1
		}
		return 0
	}
	c, _ := a.Compare(b)
	return c
}

// Get returns the row with primary key pk visible to t, or nil when none is
// visible. The row is decoded into one t keeps for its Gets: it is valid
// until t's next Get, and a caller that keeps it longer clones it.
func (tb *Table) Get(t *Txn, pk sqlmini.Value) storage.Row {
	rec, ok := tb.GetRec(t, pk)
	if !ok {
		return nil
	}
	row := t.getRow(len(tb.Schema.Columns))
	rec.Decode(row, AllCols)
	return row
}

// GetRec returns the encoding of the row with primary key pk visible to t,
// and whether one is.
func (tb *Table) GetRec(t *Txn, pk sqlmini.Value) (Rec, bool) {
	ch := tb.chain(pk, false)
	if ch == nil {
		return nil, false
	}
	ch.mu.Lock()
	// SI sanity: a snapshot sees at most one version per logical row.
	invariant.Check(func() error { return tb.checkAtMostOneVisible(ch, t) })
	var rec Rec
	if v := tb.visibleVersion(ch, t); v != nil {
		rec = tb.rec(v.ref)
	}
	ch.mu.Unlock()
	return rec, rec != nil
}

// checkAtMostOneVisible verifies the snapshot-isolation guarantee that a
// transaction's snapshot exposes at most one version of each logical row.
// Caller holds ch.mu. Invariants builds only.
func (tb *Table) checkAtMostOneVisible(ch *rowChain, t *Txn) error {
	n := 0
	vs := tb.versions(ch)
	for i := range vs {
		if t.visible(&vs[i]) {
			n++
		}
	}
	if n > 1 {
		return fmt.Errorf("mvcc: %d versions of one row visible to txn %d (snapshot %d)", n, t.ID, t.Snapshot)
	}
	return nil
}

// visibleVersion returns the version in ch visible to t, newest first, or
// nil. Caller holds ch.mu, and the version is valid only while it does.
func (tb *Table) visibleVersion(ch *rowChain, t *Txn) *version {
	vs := tb.versions(ch)
	for i := len(vs) - 1; i >= 0; i-- {
		if t.visible(&vs[i]) {
			return &vs[i]
		}
	}
	return nil
}

// Scan calls fn for every row visible to t, in primary-key order. fn
// returning false stops the scan. Ordering is deterministic so that dumps
// and state comparisons are stable. Every row is fn's to keep (see
// Txn.newRow).
func (tb *Table) Scan(t *Txn, fn func(storage.Row) bool) error {
	w := len(tb.Schema.Columns)
	return tb.ScanRecs(t, func(rec Rec) bool {
		row := t.newRow(w)
		rec.Decode(row, AllCols)
		return fn(row)
	})
}

// ScanRecs is Scan handing fn each row's encoding, for fn to decode the
// columns it reads.
//
// The scan loads the page directory once and again only for a page it
// does not have yet: page numbers grow in the order pages are added, and
// compaction drops pages only once no chain refers to them, so a ref that
// is inside a directory loaded earlier names a page that directory holds.
func (tb *Table) ScanRecs(t *Txn, fn func(Rec) bool) error {
	blocks := tb.scanRun()
	dir := tb.pageDir()
	for _, b := range blocks {
		for used := b.used.Load(); used != 0; used &= used - 1 {
			ch := b.chain(bits.TrailingZeros64(used))
			ch.mu.Lock()
			var rec Rec
			if v := tb.visibleVersion(ch, t); v != nil {
				if v.ref.page() >= len(dir) {
					dir = tb.pageDir()
				}
				rec = Rec(bytesAt(dir, v.ref))
			}
			ch.mu.Unlock()
			if rec != nil && !fn(rec) {
				return nil
			}
		}
	}
	return nil
}

// eachChain calls fn for every chain of the directory and its key, in key
// order, with no lock held.
func (tb *Table) eachChain(fn func(pk sqlmini.Value, ch *rowChain)) {
	for _, b := range tb.scanRun() {
		for used := b.used.Load(); used != 0; used &= used - 1 {
			i := bits.TrailingZeros64(used)
			fn(b.key(i), b.chain(i))
		}
	}
}

// Len reports the number of rows visible to t.
func (tb *Table) Len(t *Txn) int {
	n := 0
	for _, b := range tb.scanRun() {
		for used := b.used.Load(); used != 0; used &= used - 1 {
			ch := b.chain(bits.TrailingZeros64(used))
			ch.mu.Lock()
			if tb.visibleVersion(ch, t) != nil {
				n++
			}
			ch.mu.Unlock()
		}
	}
	return n
}

// Insert adds a new row. It fails with ErrUniqueViolation when a visible or
// newly committed row with the same key exists, and respects
// first-updater-wins against a concurrent inserter of the same key.
//
// The row is encoded into the table's pages (an INT in a FLOAT column
// widened on the way); the caller keeps row, unchanged, and may reuse it.
func (tb *Table) Insert(t *Txn, row storage.Row) error {
	if t.done {
		return ErrTxnDone
	}
	if err := tb.Schema.CheckRow(row); err != nil {
		return err
	}
	pk := tb.Schema.Widen(tb.Schema.PKIndex(), tb.Schema.PK(row))
	s := tb.stripeFor(pk)
	b, _ := tb.chainIn(s, pk, true)
	if err := tb.insertInto(t, &s.cursor, b, slotOf(pk), row, nil); err != nil {
		return err
	}
	tb.indexAdd(row, pk)
	return nil
}

// insertInto adds t's version to ch, slot i's chain of block b of the stripe
// whose cursor is c, once the chain-lock checks pass: no committed version t cannot see
// (a concurrent inserter won), no version t can see, and the row lock free
// or t's, waited for while another transaction holds it. The version's row
// is rec, a row already encoded, or else row, encoded here; either way it
// is stored under ch.mu, as compaction requires (see store).
func (tb *Table) insertInto(t *Txn, c *pageCursor, b *chainBlock, i int, row storage.Row, rec []byte) error {
	ch := b.chain(i)
	var deadline time.Time // set by the first waitUnlocked, if any
	ch.mu.Lock()
	for {
		// Any committed version the snapshot can't see means a
		// concurrent inserter already won.
		if tb.committedAfter(ch, t) {
			ch.mu.Unlock()
			return ErrUniqueViolation
		}
		if tb.visibleVersion(ch, t) != nil {
			ch.mu.Unlock()
			return ErrUniqueViolation
		}
		if ch.lockOwner == 0 || ch.lockOwner == t.ID {
			break
		}
		wake := tb.waiter(ch)
		ch.mu.Unlock()
		if err := tb.await(ch, t, wake, &deadline); err != nil {
			return err
		}
		ch.mu.Lock()
	}
	ch.acquire(tb, b, i, t)
	var r ref
	if rec != nil {
		r = tb.storeEncoded(c, rec)
	} else {
		r = tb.store(c, row)
	}
	tb.setVersions(ch, append(tb.versions(ch), version{xmin: t.ID, ref: r}))
	ch.mu.Unlock()
	t.writes++
	return nil
}

// InsertRecs inserts the rows encoded back to back in recs, each as the
// table stores it (a dump section's rows), and returns how many it
// inserted and the key of the last. The keys must ascend strictly, from
// above after when after is not NULL. A row is checked on its encoding, as
// DecodeRec checks it and with Insert's refusal of a NULL primary key, and
// only its key is decoded.
//
// The rows of one block of the chain directory are filed in one hold of
// the block's stripe lock and, inside it, of its cursor's lock (see
// fileBlock), so a restore files 64 keys at a time: one reservation and one
// copy of their bytes, with no row encoded again. A version keeps nothing
// of recs.
func (tb *Table) InsertRecs(t *Txn, recs []byte, after sqlmini.Value) (int, sqlmini.Value, error) {
	if t.done {
		return 0, after, ErrTxnDone
	}
	n := 0
	for len(recs) > 0 {
		var g recBlock
		rest, err := tb.nextBlock(recs, &after, &g)
		if err != nil {
			return n, after, err
		}
		if err := tb.fileBlock(t, &g); err != nil {
			return n, after, err
		}
		recs, n = rest, n+g.n
	}
	return n, after, nil
}

// recBlock is a run of checked rows that one block of the chain directory
// files: rows 0..n-1, encoded back to back in recs, row i ending at ends[i]
// and keyed pks[i].
type recBlock struct {
	recs []byte
	n    int
	ends [blockKeys]int
	pks  [blockKeys]sqlmini.Value
}

// rec returns row i's encoding.
func (g *recBlock) rec(i int) []byte {
	start := 0
	if i > 0 {
		start = g.ends[i-1]
	}
	return g.recs[start:g.ends[i]]
}

// nextBlock checks the rows at the head of recs into g for as long as they
// belong to the block of the first, advancing *after past each, and
// returns what follows them. A TEXT key aliases recs.
func (tb *Table) nextBlock(recs []byte, after *sqlmini.Value, g *recBlock) ([]byte, error) {
	n, at := len(tb.Schema.Columns), tb.Schema.PKIndex()
	off := 0
	for off < len(recs) && g.n < blockKeys {
		size, err := tb.checkRec(recs[off:])
		if err != nil {
			return nil, err
		}
		// checkRec found every value its column's kind or NULL, which leaves
		// of CheckRow only its refusal of a NULL key.
		pk := value(recs[off:], at, n)
		if err := tb.Schema.CheckPK(pk); err != nil {
			return nil, err
		}
		if !after.IsNull() && comparePK(pk, *after) <= 0 {
			return nil, fmt.Errorf("mvcc: table %s: rows out of key order", tb.Schema.Name)
		}
		if g.n > 0 && (pk.Kind != sqlmini.KindInt || pk.Int>>blockShift != g.pks[0].Int>>blockShift) {
			break
		}
		off += size
		g.ends[g.n], g.pks[g.n] = off, pk
		g.n++
		*after = pk
	}
	g.recs = recs[:off]
	return recs[off:], nil
}

// fileBlock inserts g's rows for t. Under the lock of their stripe and then
// of its cursor, every row whose slot is empty gets a new chain of the
// block's holding t's version, its row lock already t's, in one
// reservation of the page with one copy of the rows; only then is its slot
// marked used. A reader or a compaction that finds such a chain so finds
// it whole, and a compaction that closed the cursor first leaves the rows
// in the fresh page they land in (see compact). A slot that already holds a
// chain, one an aborted transaction left or a row t cannot insert over,
// goes through insertInto as Insert's row does.
func (tb *Table) fileBlock(t *Txn, g *recBlock) error {
	pk := g.pks[0]
	s := tb.stripeFor(pk)
	var taken [blockKeys]bool // whether g's row i's slot already holds a chain
	s.mu.Lock()
	b := s.block(pk)
	if b == nil {
		if pk.Kind == sqlmini.KindText {
			pk.Str = strings.Clone(pk.Str)
		}
		b = newBlock(pk)
		s.put(pk, b)
		tb.spineInsert(b)
	}
	size, free := 0, 0
	for i := range g.n {
		if b.has(slotOf(g.pks[i])) {
			taken[i] = true
		} else {
			size += len(g.rec(i))
			free++
		}
	}
	if free > 0 {
		c := &s.cursor
		c.mu.Lock()
		page, r := tb.reserve(c, size)
		if free == g.n {
			copy(page, g.recs)
		}
		used, off, want := b.used.Load(), 0, free
		for i := range g.n {
			if taken[i] {
				continue
			}
			rec := g.rec(i)
			if free < g.n {
				copy(page[off:], rec)
			}
			j := slotOf(g.pks[i])
			ch := b.newChain(j, want)
			want--
			ch.first[0], ch.n = version{xmin: t.ID, ref: r + ref(off)}, 1
			ch.lockOwner = t.ID
			used |= 1 << j
			off += len(rec)
		}
		t.hold(tb, b, used&^b.used.Load())
		b.used.Store(used)
		c.mu.Unlock()
		t.writes += free
	}
	s.mu.Unlock()
	n := len(tb.Schema.Columns)
	for i := range g.n {
		if taken[i] {
			if err := tb.insertInto(t, &s.cursor, b, slotOf(g.pks[i]), nil, g.rec(i)); err != nil {
				return err
			}
		}
		for _, ix := range tb.indexList() {
			ix.add(value(g.rec(i), ix.col, n), g.pks[i])
		}
	}
	return nil
}

// Update replaces the visible version of the row keyed pk with newRow
// (same primary key). It returns false when no version is visible, and
// ErrSerialization under first-updater-wins. Like Insert, it encodes newRow
// and leaves it to the caller.
func (tb *Table) Update(t *Txn, pk sqlmini.Value, newRow storage.Row) (bool, error) {
	return tb.write(t, pk, newRow, false)
}

// Delete removes the visible version of the row keyed pk. It returns false
// when no version is visible.
func (tb *Table) Delete(t *Txn, pk sqlmini.Value) (bool, error) {
	return tb.write(t, pk, nil, true)
}

func (tb *Table) write(t *Txn, pk sqlmini.Value, newRow storage.Row, del bool) (bool, error) {
	if t.done {
		return false, ErrTxnDone
	}
	if !del {
		if err := tb.Schema.CheckRow(newRow); err != nil {
			return false, err
		}
		if tb.Schema.Widen(tb.Schema.PKIndex(), tb.Schema.PK(newRow)) != pk {
			return false, ErrPKImmutable
		}
	}
	s := tb.stripeFor(pk)
	b, ch := tb.chainIn(s, pk, false)
	if ch == nil {
		return false, nil
	}

	var deadline time.Time // set by the first waitUnlocked, if any
	ch.mu.Lock()
	for {
		// First-updater-wins, committed-winner path: a concurrent
		// transaction already committed a newer version of this row.
		if tb.committedAfter(ch, t) {
			ch.mu.Unlock()
			return false, ErrSerialization
		}
		if ch.lockOwner == 0 || ch.lockOwner == t.ID {
			break
		}
		// First-updater-wins, active-winner path: wait for the lock
		// holder; if it commits we will see committedAfter above and
		// abort, if it aborts we proceed.
		wake := tb.waiter(ch)
		ch.mu.Unlock()
		if err := tb.await(ch, t, wake, &deadline); err != nil {
			return false, err
		}
		ch.mu.Lock()
	}
	// Supersede the version visible to t.
	v := tb.visibleVersion(ch, t)
	if v == nil {
		ch.mu.Unlock()
		return false, nil
	}
	ch.acquire(tb, b, slotOf(pk), t)
	// First-updater-wins must hold at the moment of superseding: with the
	// row lock ours, no concurrent committed winner may exist.
	invariant.Check(func() error {
		if tb.committedAfter(ch, t) {
			return fmt.Errorf("mvcc: txn %d superseding a row with a committed-after-snapshot version", t.ID)
		}
		return nil
	})
	v.xmax = t.ID
	if !del {
		tb.setVersions(ch, append(tb.versions(ch), version{xmin: t.ID, ref: tb.store(&s.cursor, newRow)}))
	}
	ch.mu.Unlock()
	if !del {
		tb.indexAdd(newRow, pk)
	}
	t.writes++
	return true, nil
}

// ErrPKImmutable reports an attempt to change a row's primary key in place.
var ErrPKImmutable = errPKImmutable{}

type errPKImmutable struct{}

func (errPKImmutable) Error() string { return "mvcc: primary key is immutable; delete and insert" }

// committedAfter reports whether any version of this chain was created or
// deleted by a transaction that committed after t's snapshot. Caller holds
// ch.mu.
func (tb *Table) committedAfter(ch *rowChain, t *Txn) bool {
	vs := tb.versions(ch)
	for i := range vs {
		v := &vs[i]
		if v.xmin != t.ID {
			if st, csn := t.mgr.statusOf(v.xmin); st == StatusCommitted && csn > t.Snapshot {
				return true
			}
		}
		if v.xmax != 0 && v.xmax != t.ID {
			if st, csn := t.mgr.statusOf(v.xmax); st == StatusCommitted && csn > t.Snapshot {
				return true
			}
		}
	}
	return false
}

// acquire takes the row lock of ch, slot i's chain of tb's block b, for t
// (idempotent). Caller holds ch.mu.
func (ch *rowChain) acquire(tb *Table, b *chainBlock, i int, t *Txn) {
	invariant.Assertf(ch.lockOwner == 0 || ch.lockOwner == t.ID,
		"mvcc: txn %d acquiring a row lock held by txn %d", t.ID, ch.lockOwner)
	if ch.lockOwner == t.ID {
		return
	}
	ch.lockOwner = t.ID
	t.hold(tb, b, 1<<i)
}

// waiter registers and returns a channel the row lock's holder closes when
// it releases the lock. Caller holds ch.mu, and releases it to await the
// channel: the holder closes it under ch.mu, so a release between that
// unlock and the wait cannot be missed.
func (tb *Table) waiter(ch *rowChain) chan struct{} {
	wake := make(chan struct{})
	e := tb.extOf(ch)
	e.waiters = append(e.waiters, wake)
	return wake
}

// await waits, with ch.mu released, until wake is closed or the deadline
// passes. On a nil return the caller takes ch.mu again and must recheck all
// conditions.
//
// *deadline bounds all of one statement's waits on this row. It is set on
// the first wait, not when the statement started, so the uncontended path
// reads no clock and the lock-timeout budget starts when the waiting does.
func (tb *Table) await(ch *rowChain, t *Txn, wake chan struct{}, deadline *time.Time) error {
	if deadline.IsZero() {
		*deadline = time.Now().Add(t.lockTimeout())
	}
	if wait := time.Until(*deadline); wait > 0 {
		select {
		case <-wake:
			return nil
		case <-t.waitTimerFor(wait):
		}
	}
	ch.mu.Lock()
	e := tb.ext(ch) // the waiter gave ch one
	if i := slices.Index(e.waiters, wake); i >= 0 {
		e.waiters = slices.Delete(e.waiters, i, i+1)
	}
	ch.mu.Unlock()
	return ErrLockTimeout
}

// unlock releases ch's row lock if id owns it and wakes all waiters.
func (tb *Table) unlock(ch *rowChain, id TxnID) {
	ch.mu.Lock()
	if ch.lockOwner == id {
		ch.lockOwner = 0
		if ch.ext != 0 {
			e := tb.ext(ch)
			for _, w := range e.waiters {
				close(w)
			}
			e.waiters = nil
		}
	}
	ch.mu.Unlock()
}

// heldRow is the row locks a transaction holds in one block of a table's
// chain directory: the chain of slot i of block for every bit i of mask. A
// restore files a block of rows at a time, so its transaction's list holds
// an entry per block, not one per row.
type heldRow struct {
	tb    *Table
	block *chainBlock
	mask  uint64
}

// chains calls fn for each of h's chains, in ascending slot order.
func (h heldRow) chains(fn func(ch *rowChain)) {
	for m := h.mask; m != 0; m &= m - 1 {
		fn(h.block.chain(bits.TrailingZeros64(m)))
	}
}

// undo physically removes an aborted transaction's trace from ch, one of
// tb's chains: versions it created disappear, supersession marks it left are
// cleared. Safe because id's versions were never visible to any other
// transaction and statusOf already reports the (dropped) transaction as
// aborted.
func (tb *Table) undo(ch *rowChain, id TxnID) {
	ch.mu.Lock()
	vs := tb.versions(ch)
	kept := vs[:0]
	for _, v := range vs {
		if v.xmin == id {
			tb.drop(v.ref)
			continue
		}
		if v.xmax == id {
			v.xmax = 0
		}
		kept = append(kept, v)
	}
	tb.setVersions(ch, kept)
	ch.mu.Unlock()
}
