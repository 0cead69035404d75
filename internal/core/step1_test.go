package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"madeus/internal/cluster"
	"madeus/internal/engine"
	"madeus/internal/flow"
	"madeus/internal/obs"
	"madeus/internal/tpcw"
)

// TestPipelinedMigrateReportsChunks: the pipelined Step 1 moves a
// tenant correctly and reports its chunk count and peak resident transfer
// bytes.
func TestPipelinedMigrateReportsChunks(t *testing.T) {
	rig := newRig(t, 2, engine.Options{DumpBatch: 10})
	rig.provision(t, "a", 200)

	rig.mw.dumpChunk = 4
	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{
		Strategy:   Madeus,
		KeepSource: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chunks < 2 {
		t.Errorf("Chunks = %d, want several for 200 rows at DumpBatch 10 / 4 stmts per chunk", rep.Chunks)
	}
	if rep.PeakTransferBytes <= 0 {
		t.Errorf("PeakTransferBytes = %d, want > 0", rep.PeakTransferBytes)
	}
	src, _ := rig.mw.Node("node0")
	dst, _ := rig.mw.Node("node1")
	if s, d := sumBal(t, src, "a"), sumBal(t, dst, "a"); s != d || d != 200*100 {
		t.Errorf("sums diverge after pipelined migrate: src=%d dst=%d", s, d)
	}
}

// TestPipelinedTransferBudgetCapsPeak: with a byte cap configured in the
// flow layer, the pipeline's peak resident transfer memory honors it.
func TestPipelinedTransferBudgetCapsPeak(t *testing.T) {
	const capBytes = 2048
	rig := newFlowRig(t, Options{Flow: flow.Config{MaxTransferBytes: capBytes}},
		engine.Options{DumpBatch: 5}, engine.Options{DumpBatch: 5})
	rig.provision(t, "a", 300)

	rig.mw.dumpChunk = 2
	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{
		Strategy: Madeus,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakTransferBytes <= 0 || rep.PeakTransferBytes > capBytes {
		t.Errorf("PeakTransferBytes = %d, want in (0, %d]", rep.PeakTransferBytes, capBytes)
	}
	if flow.TransferBytes() != 0 {
		t.Errorf("flow.transfer.bytes gauge = %d after migration, want 0", flow.TransferBytes())
	}
	dst, _ := rig.mw.Node("node1")
	if d := sumBal(t, dst, "a"); d != 300*100 {
		t.Errorf("dest sum = %d", d)
	}
}

// TestPipelinedMigrateWithBackups: chunks broadcast to the primary and the
// backups; every slave ends with the full data set.
func TestPipelinedMigrateWithBackups(t *testing.T) {
	rig := newRig(t, 3, engine.Options{DumpBatch: 10})
	rig.provision(t, "a", 100)

	rig.mw.dumpChunk = 4
	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{
		Strategy:   Madeus,
		Backups:    []string{"node2"},
		KeepSource: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Discarded) != 0 {
		t.Fatalf("discarded %v with healthy slaves", rep.Discarded)
	}
	// The promoted primary holds the data; the unpromoted backup copy is
	// dropped after switch-over (see TestMultiSlave tests).
	dst, _ := rig.mw.Node("node1")
	if d := sumBal(t, dst, "a"); d != 100*100 {
		t.Errorf("node1 sum = %d", d)
	}
}

// slaveCommits reads a node's per-tenant committed-transaction counter.
func slaveCommits(t *testing.T, rig *testRig, i int, tenant string) uint64 {
	t.Helper()
	db, ok := rig.nodes[i].Engine.Database(tenant)
	if !ok {
		t.Fatalf("node%d has no database %q", i, tenant)
	}
	return db.Stats().Commits
}

// TestRestoreOneBarrierNoAutocommitInserts pins the shape of Step 2 on a
// multi-table tenant: the schema crosses as chunk 0 and is the only serial
// work, applied as one transaction; every row chunk crosses as ONE wire
// operation — its row statements joined — and commits once. Counted on
// the slave itself: its commit counter (a statement applied on its own
// would commit by itself, so the restore's commits would track the 6
// schema and 48 row statements instead of the chunks), and the traced
// operations its wire server served for the migration.
func TestRestoreOneBarrierNoAutocommitInserts(t *testing.T) {
	rig := newRig(t, 1, engine.Options{DumpBatch: 5})
	slave, err := cluster.NewNode("node1", cluster.NodeOptions{
		Engine: engine.Options{DumpBatch: 5},
		Scope:  obs.NewScope("scope-restore-shape"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(slave.Close)
	rig.mw.AddNode(slave)
	rig.nodes = append(rig.nodes, slave)
	rig.provision(t, "a", 80) // acct: 16 row statements at DumpBatch 5
	c := rig.connect(t, "a")
	mustExecAll(t, c,
		"CREATE INDEX acct_bal ON acct (bal)",
		"CREATE TABLE empty (id INT PRIMARY KEY)",
		"CREATE TABLE orders (id INT PRIMARY KEY, acct INT)",
		"CREATE INDEX orders_acct ON orders (acct)",
		"CREATE TABLE zlog (id INT PRIMARY KEY)")
	for i := 0; i < 80; i++ {
		mustExecAll(t, c,
			fmt.Sprintf("INSERT INTO orders (id, acct) VALUES (%d, %d)", i, i%7),
			fmt.Sprintf("INSERT INTO zlog (id) VALUES (%d)", i))
	}
	c.Close()
	const schemaStmts, rowStmts = 6, 3 * 16

	rig.mw.dumpChunk = 8
	mark := slave.Scope().Tracer.Seq()
	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{
		Strategy:   Madeus,
		KeepSource: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rowChunks := rowStmts / 8
	if rep.Chunks != 1+rowChunks {
		t.Errorf("Chunks = %d, want %d (the schema, then %d row statements in eights)", rep.Chunks, 1+rowChunks, rowStmts)
	}
	// The idle tenant propagated nothing, so every commit on the slave is
	// the restore's: one per chunk.
	if got := slaveCommits(t, rig, 1, "a"); got != uint64(rep.Chunks) {
		t.Errorf("slave committed %d times for %d chunks: statements ran outside a chunk's transaction", got, rep.Chunks)
	}
	// The schema chunk is BEGIN, its statements and COMMIT; a row chunk is
	// one operation; Step 4's promotion probe is BEGIN and COMMIT.
	ops := 0
	for _, ev := range slave.Scope().Tracer.Since(mark, "a") {
		if ev.Name == "wire.exec" {
			ops++
		}
	}
	if want := schemaStmts + 2 + rowChunks + 2; ops != want {
		t.Errorf("slave served %d operations for the migration, want %d (%d for the schema, one per row chunk, 2 for the probe)", ops, want, schemaStmts+2)
	}
	assertStateEqual(t, rig.nodes[0], rig.nodes[1], "a")
}

// TestApplyChunkMixedIsOneTransaction: each chunk of a restore is one
// transaction on the slave — the schema chunk, whatever SQL it holds, as
// BEGIN … COMMIT, and a row chunk, whatever tables its row statements
// span, as those statements joined into one — and a row chunk that fails
// leaves none of its rows behind.
func TestApplyChunkMixedIsOneTransaction(t *testing.T) {
	rig := newRig(t, 1, engine.Options{})
	rig.provision(t, "a", 0)
	cn, err := rig.nodes[0].Connect("a")
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	commits := func(schema bool, stmts []string) (uint64, error) {
		t.Helper()
		before := slaveCommits(t, rig, 0, "a")
		err := applyChunk(cn, &step1Chunk{stmts: stmts}, schema)
		return slaveCommits(t, rig, 0, "a") - before, err
	}
	if n, err := commits(true, []string{
		"CREATE TABLE x (id INT PRIMARY KEY)",
		"CREATE TABLE y (id INT PRIMARY KEY)",
		"INSERT INTO y (id) VALUES (1)",
		"CREATE TABLE z (id INT PRIMARY KEY)"}); err != nil || n != 1 {
		t.Errorf("mixed schema chunk: %v, committed %d times, want once", err, n)
	}

	// Row statements of x, y and z, from a dump of a source holding them.
	src := engine.New(engine.Options{DumpBatch: 1})
	defer src.Close()
	if err := src.CreateDatabase("src"); err != nil {
		t.Fatal(err)
	}
	ss, _ := src.NewSession("src")
	for _, q := range []string{
		"CREATE TABLE nosuch (id INT PRIMARY KEY)",
		"CREATE TABLE x (id INT PRIMARY KEY)",
		"CREATE TABLE y (id INT PRIMARY KEY)",
		"CREATE TABLE z (id INT PRIMARY KEY)",
		"INSERT INTO nosuch (id) VALUES (1)",
		"INSERT INTO x (id) VALUES (1), (2)",
		"INSERT INTO y (id) VALUES (2), (3)",
		"INSERT INTO z (id) VALUES (1), (2)",
	} {
		if _, err := ss.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	var rows []string // nosuch 1, x 1, x 2, y 2, y 3, z 1, z 2 (y 1 is the schema chunk's)
	if _, err := ss.DumpStream(0, func(stmts []string) error {
		rows = stmts
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("dumped %d row statements, want 7", len(rows))
	}
	nosuch, x1, x2 := rows[0], rows[1], rows[2]
	if n, err := commits(false, append([]string{x1}, rows[3:]...)); err != nil || n != 1 {
		t.Errorf("row chunk over three tables: %v, committed %d times, want once", err, n)
	}
	count := func(table string) int64 {
		t.Helper()
		res, err := cn.Exec("SELECT COUNT(*) FROM " + table)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].Int
	}
	for table, want := range map[string]int64{"x": 1, "y": 3, "z": 2} {
		if got := count(table); got != want {
			t.Errorf("%s has %d rows, want %d", table, got, want)
		}
	}
	// A row chunk whose first rows insert and whose last names a table the
	// slave lacks fails whole: x 2 is rolled back, and the session stays
	// usable.
	if n, err := commits(false, []string{x2, nosuch}); err == nil || n != 0 {
		t.Fatalf("row chunk naming a missing table: %v, committed %d times, want an error and none", err, n)
	}
	if got := count("x"); got != 1 {
		t.Errorf("after a failed chunk x has %d rows, want 1: the chunk's rows were not rolled back", got)
	}
	if n, err := commits(false, []string{x2}); err != nil || n != 1 {
		t.Errorf("x 2 alone after the failed chunk: %v, committed %d times, want once", err, n)
	}
	if got := count("x"); got != 2 {
		t.Errorf("x has %d rows, want 2", got)
	}
}

// TestMigrateExponentFloats: a tenant holding FLOATs whose shortest form has
// an exponent migrates. The destination re-reads its dump, so a value that
// renders as 1.2345675e+06 must lex back as a float for Step 2 to restore
// it, and the two nodes end identical.
func TestMigrateExponentFloats(t *testing.T) {
	rig := newRig(t, 2, engine.Options{})
	rig.provision(t, "a", 10)
	c := rig.connect(t, "a")
	mustExecAll(t, c,
		"CREATE TABLE m (id INT PRIMARY KEY, x FLOAT)",
		"INSERT INTO m (id, x) VALUES (1, 1234567.5), (2, 0.00001), (3, 1000000000000000000000.0), (4, -0.00000025)")
	c.Close()
	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus, KeepSource: true})
	if err != nil {
		t.Fatalf("migrate: %v (%s)", err, rep)
	}
	assertStateEqual(t, rig.nodes[0], rig.nodes[1], "a")
}

// TestMigrationAllocBytes pins what one migration of an idle tenant of
// 85,000 TPC-W rows (the benchmark's order-large scale) allocates, process
// wide. What is left is the slave's own rows: the pages its rows' bytes are
// filed in as they arrived, their chains and the chain directory's
// blocks. A restore chunk's frames, the middleware's and the slave's, come
// from the wire's pool and go back to it, the slave checks each row on its
// encoding without decoding it, and the dump builds every chunk in one
// buffer. The least of two migrations, there and back, so a stray
// collection or a first-use growth (the pool starts empty) does not count.
func TestMigrationAllocBytes(t *testing.T) {
	rig := newRig(t, 2, engine.Options{})
	if err := rig.mw.ProvisionTenant("shop", "node0"); err != nil {
		t.Fatal(err)
	}
	c := rig.connect(t, "shop")
	err := tpcw.Load(c, tpcw.Scale{Items: 20000, Customers: 60000, Authors: 5000})
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	least := uint64(math.MaxUint64)
	for _, dest := range []string{"node1", "node0"} {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := rig.mw.Migrate("shop", dest, MigrateOptions{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("migrate to %s: %v (%s)", dest, err, rep)
		}
		t.Logf("to %s: %.1f MB in %d chunks, %d GC cycles", dest, float64(after.TotalAlloc-before.TotalAlloc)/1e6, rep.Chunks, rep.GCCycles)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	bound := 16e6
	if raceEnabled {
		bound = 20e6 // the race detector drops a quarter of the frames put back to the pool
	}
	if float64(least) > bound {
		t.Errorf("a migration of 85k rows allocates %.1f MB, want at most %.0f", float64(least)/1e6, bound/1e6)
	}
}

// TestLargeChunksReachEverySlave: a chunk above the 64 KiB a connection
// keeps arrives in a frame from the wire's pool, and Step 1 gives that
// frame back only once the last slave has applied it. A tenant of wide
// TEXT rows, whose every row chunk crosses in such a frame, is dumped to a
// primary and a backup slave that lags it; all three copies must end
// identical. A frame given back at the first release would be read into
// again, by a later chunk, while the backup still holds it.
func TestLargeChunksReachEverySlave(t *testing.T) {
	const batch, chunk = 10, 4 // sections of 10 rows, 4 sections a chunk
	rig := newRig(t, 3, engine.Options{DumpBatch: batch})
	rig.provision(t, "a", 0)
	c := rig.connect(t, "a")
	mustExecAll(t, c, "CREATE TABLE wide (id INT PRIMARY KEY, v TEXT)")
	const rows = 2000 // 2 KB each: 50 chunks of about 80 KB
	for i := 0; i < rows; i += 10 {
		sql := "INSERT INTO wide (id, v) VALUES "
		for j := i; j < i+10; j++ {
			if j > i {
				sql += ", "
			}
			sql += fmt.Sprintf("(%d, '%d%s')", j, j, strings.Repeat(string(rune('a'+j%26)), 2<<10))
		}
		mustExecAll(t, c, sql)
	}
	c.Close()

	src, err := rig.nodes[0].Engine.NewSession("a")
	if err != nil {
		t.Fatal(err)
	}
	large := 0
	if _, err := src.DumpStream(chunk, func(stmts []string) error {
		if len(strings.Join(stmts, "")) > 64<<10 {
			large++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	src.Close()
	if large < rows/(batch*chunk) {
		t.Fatalf("%d chunks above 64 KiB, want every one of wide's %d", large, rows/(batch*chunk))
	}

	ctl, err := rig.nodes[0].Connect("a")
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	mustExecAll(t, ctl, "BEGIN", "SNAPSHOT")
	// The backup starts only once the primary has applied three chunks and
	// the backup's queue is full, so the primary releases every chunk well
	// before the backup does.
	primaryAhead := func() bool {
		db, ok := rig.nodes[1].Engine.Database("a")
		return ok && db.Stats().Commits >= 3
	}
	backup := &hookedNode{Node: rig.nodes[2], before: func(call int) {
		for deadline := time.Now().Add(10 * time.Second); call == 1 && !primaryAhead() && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}}
	pr := pipelineSnapshot(ctl, "a", []Backend{rig.nodes[1], backup}, chunk, nil, flow.NewTransferBudget(0))
	if pr.streamErr != nil || len(pr.slaveErr) != 0 {
		t.Fatalf("pipeline: stream %v, slaves %v", pr.streamErr, pr.slaveErr)
	}
	assertStateEqual(t, rig.nodes[0], rig.nodes[1], "a")
	assertStateEqual(t, rig.nodes[0], rig.nodes[2], "a")
}
