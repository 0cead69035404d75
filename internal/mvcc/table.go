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
type rowChain struct {
	mu        sync.Mutex //madeusvet:lockrank mvcc-row 42
	versions  []version
	lockOwner TxnID
	waiters   []chan struct{}
	// first backs versions until a second version outgrows it, so a row
	// that is never updated costs no array of its own.
	first [1]version
}

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

	// spare holds chains allocated ahead (see newChain); chains counts
	// those handed out. Guarded by mu.
	spare  []rowChain
	chains int

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
// one slot of a block of its own. A slot is set once, under the lock of
// the block's stripe, and its bit in used only after it, so a reader that
// loads used reads every slot it marks with no lock. Blocks, like chains,
// are never removed.
type chainBlock struct {
	first sqlmini.Value // the least key the block can hold
	used  atomic.Uint64 // bit i is set once slots[i] is
	slots []*rowChain
}

// intBlock and keyBlock are a block and its slots in one allocation.
type intBlock struct {
	chainBlock
	chains [blockKeys]*rowChain
}

type keyBlock struct {
	chainBlock
	chain [1]*rowChain
}

// newBlock returns the empty block pk belongs in.
func newBlock(pk sqlmini.Value) *chainBlock {
	if pk.Kind == sqlmini.KindInt {
		b := &intBlock{}
		b.first, b.slots = sqlmini.NewInt(pk.Int&^(blockKeys-1)), b.chains[:]
		return &b.chainBlock
	}
	b := &keyBlock{}
	b.first, b.slots = pk, b.chain[:]
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

// fill sets slot i to ch. Caller holds the lock of the block's stripe.
func (b *chainBlock) fill(i int, ch *rowChain) {
	b.slots[i] = ch
	b.used.Store(b.used.Load() | 1<<i)
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
	return tb
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

// newChain returns a new empty chain. Chains are never removed, so they are
// allocated in arrays that live as long as the table, each as long as the
// chains the stripe allocated before, up to a block's worth: a stripe that
// allocated n chains holds at most n spare. Caller holds s.mu.
func (s *tableStripe) newChain() *rowChain {
	if len(s.spare) == 0 {
		s.spare = make([]rowChain, min(blockKeys, 1+s.chains))
	}
	ch := &s.spare[0]
	s.spare = s.spare[1:]
	s.chains++
	ch.versions = ch.first[:0]
	return ch
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
	return tb.chainIn(tb.stripeFor(pk), pk, create)
}

// chainIn is chain with pk's stripe s already picked. A TEXT key is filed as
// a copy, so the directory never keeps the caller's statement text alive.
func (tb *Table) chainIn(s *tableStripe, pk sqlmini.Value, create bool) *rowChain {
	s.mu.Lock()
	b := s.block(pk)
	var ch *rowChain
	if b != nil {
		ch = b.slots[slotOf(pk)]
	}
	if ch == nil && create {
		if b == nil {
			if pk.Kind == sqlmini.KindText {
				pk.Str = strings.Clone(pk.Str)
			}
			b = newBlock(pk)
			s.put(pk, b)
			tb.spineInsert(b)
		}
		ch = s.newChain()
		b.fill(slotOf(pk), ch)
	}
	s.mu.Unlock()
	return ch
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
	invariant.Check(func() error { return ch.checkAtMostOneVisible(t) })
	var rec Rec
	if v := ch.visibleVersion(t); v != nil {
		rec = tb.rec(v.ref)
	}
	ch.mu.Unlock()
	return rec, rec != nil
}

// checkAtMostOneVisible verifies the snapshot-isolation guarantee that a
// transaction's snapshot exposes at most one version of each logical row.
// Caller holds ch.mu. Invariants builds only.
func (ch *rowChain) checkAtMostOneVisible(t *Txn) error {
	n := 0
	for i := range ch.versions {
		if t.visible(&ch.versions[i]) {
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
func (ch *rowChain) visibleVersion(t *Txn) *version {
	for i := len(ch.versions) - 1; i >= 0; i-- {
		if t.visible(&ch.versions[i]) {
			return &ch.versions[i]
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
			ch := b.slots[bits.TrailingZeros64(used)]
			ch.mu.Lock()
			var rec Rec
			if v := ch.visibleVersion(t); v != nil {
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
			fn(b.key(i), b.slots[i])
		}
	}
}

// Len reports the number of rows visible to t.
func (tb *Table) Len(t *Txn) int {
	n := 0
	for _, b := range tb.scanRun() {
		for used := b.used.Load(); used != 0; used &= used - 1 {
			ch := b.slots[bits.TrailingZeros64(used)]
			ch.mu.Lock()
			if ch.visibleVersion(t) != nil {
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
	ch := tb.chainIn(s, pk, true)

	var deadline time.Time // set by the first waitUnlocked, if any
	ch.mu.Lock()
	for {
		// Any committed version the snapshot can't see means a
		// concurrent inserter already won.
		if ch.committedAfter(t) {
			ch.mu.Unlock()
			return ErrUniqueViolation
		}
		if ch.visibleVersion(t) != nil {
			ch.mu.Unlock()
			return ErrUniqueViolation
		}
		if ch.lockOwner == 0 || ch.lockOwner == t.ID {
			break
		}
		wake := ch.waiter()
		ch.mu.Unlock()
		if err := ch.await(t, wake, &deadline); err != nil {
			return err
		}
		ch.mu.Lock()
	}
	ch.acquire(tb, t)
	ch.versions = append(ch.versions, version{xmin: t.ID, ref: tb.store(&s.cursor, row)})
	ch.mu.Unlock()
	tb.indexAdd(row, pk)
	t.writes++
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
	ch := tb.chainIn(s, pk, false)
	if ch == nil {
		return false, nil
	}

	var deadline time.Time // set by the first waitUnlocked, if any
	ch.mu.Lock()
	for {
		// First-updater-wins, committed-winner path: a concurrent
		// transaction already committed a newer version of this row.
		if ch.committedAfter(t) {
			ch.mu.Unlock()
			return false, ErrSerialization
		}
		if ch.lockOwner == 0 || ch.lockOwner == t.ID {
			break
		}
		// First-updater-wins, active-winner path: wait for the lock
		// holder; if it commits we will see committedAfter above and
		// abort, if it aborts we proceed.
		wake := ch.waiter()
		ch.mu.Unlock()
		if err := ch.await(t, wake, &deadline); err != nil {
			return false, err
		}
		ch.mu.Lock()
	}
	// Supersede the version visible to t.
	v := ch.visibleVersion(t)
	if v == nil {
		ch.mu.Unlock()
		return false, nil
	}
	ch.acquire(tb, t)
	// First-updater-wins must hold at the moment of superseding: with the
	// row lock ours, no concurrent committed winner may exist.
	invariant.Check(func() error {
		if ch.committedAfter(t) {
			return fmt.Errorf("mvcc: txn %d superseding a row with a committed-after-snapshot version", t.ID)
		}
		return nil
	})
	v.xmax = t.ID
	if !del {
		ch.versions = append(ch.versions, version{xmin: t.ID, ref: tb.store(&s.cursor, newRow)})
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
func (ch *rowChain) committedAfter(t *Txn) bool {
	for i := range ch.versions {
		v := &ch.versions[i]
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

// acquire takes the row lock for t (idempotent). Caller holds ch.mu.
func (ch *rowChain) acquire(tb *Table, t *Txn) {
	invariant.Assertf(ch.lockOwner == 0 || ch.lockOwner == t.ID,
		"mvcc: txn %d acquiring a row lock held by txn %d", t.ID, ch.lockOwner)
	if ch.lockOwner == t.ID {
		return
	}
	ch.lockOwner = t.ID
	t.locks = append(t.locks, heldRow{tb: tb, ch: ch})
}

// waiter registers and returns a channel the row lock's holder closes when
// it releases the lock. Caller holds ch.mu, and releases it to await the
// channel: the holder closes it under ch.mu, so a release between that
// unlock and the wait cannot be missed.
func (ch *rowChain) waiter() chan struct{} {
	wake := make(chan struct{})
	ch.waiters = append(ch.waiters, wake)
	return wake
}

// await waits, with ch.mu released, until wake is closed or the deadline
// passes. On a nil return the caller takes ch.mu again and must recheck all
// conditions.
//
// *deadline bounds all of one statement's waits on this row. It is set on
// the first wait, not when the statement started, so the uncontended path
// reads no clock and the lock-timeout budget starts when the waiting does.
func (ch *rowChain) await(t *Txn, wake chan struct{}, deadline *time.Time) error {
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
	ch.dropWaiter(wake)
	ch.mu.Unlock()
	return ErrLockTimeout
}

// dropWaiter removes a timed-out waiter channel. Caller holds ch.mu.
func (ch *rowChain) dropWaiter(w chan struct{}) {
	for i, x := range ch.waiters {
		if x == w {
			ch.waiters = append(ch.waiters[:i], ch.waiters[i+1:]...)
			return
		}
	}
}

// unlock releases the lock if owned by id and wakes all waiters.
func (ch *rowChain) unlock(id TxnID) {
	ch.mu.Lock()
	if ch.lockOwner == id {
		ch.lockOwner = 0
		for _, w := range ch.waiters {
			close(w)
		}
		ch.waiters = nil
	}
	ch.mu.Unlock()
}

// heldRow is a row lock a transaction holds: the chain, and the table it
// belongs to.
type heldRow struct {
	tb *Table
	ch *rowChain
}

// undo physically removes an aborted transaction's trace from ch, one of
// tb's chains: versions it created disappear, supersession marks it left are
// cleared. Safe because id's versions were never visible to any other
// transaction and statusOf already reports the (dropped) transaction as
// aborted.
func (tb *Table) undo(ch *rowChain, id TxnID) {
	ch.mu.Lock()
	kept := ch.versions[:0]
	for i := range ch.versions {
		v := ch.versions[i]
		if v.xmin == id {
			tb.drop(v.ref)
			continue
		}
		if v.xmax == id {
			v.xmax = 0
		}
		kept = append(kept, v)
	}
	ch.versions = kept
	ch.mu.Unlock()
}
