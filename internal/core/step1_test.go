package core

import (
	"fmt"
	"testing"

	"madeus/internal/engine"
	"madeus/internal/flow"
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
// work; it and every row chunk are applied as ONE transaction each. Counted
// on the slave's own commit counter: a statement applied in autocommit
// commits by itself, so the restore's commits would track the 6 schema and
// 48 INSERT statements instead of the chunks.
func TestRestoreOneBarrierNoAutocommitInserts(t *testing.T) {
	rig := newRig(t, 2, engine.Options{DumpBatch: 5})
	rig.provision(t, "a", 80) // acct: 16 INSERT statements at DumpBatch 5
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
	const insertStmts = 3 * 16

	rig.mw.dumpChunk = 8
	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{
		Strategy:   Madeus,
		KeepSource: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rowChunks := insertStmts / 8
	if rep.Chunks != 1+rowChunks {
		t.Errorf("Chunks = %d, want %d (the schema, then %d INSERT statements in eights)", rep.Chunks, 1+rowChunks, insertStmts)
	}
	// The idle tenant propagated nothing, so every commit on the slave is
	// the restore's: one per chunk.
	if got := slaveCommits(t, rig, 1, "a"); got != uint64(rep.Chunks) {
		t.Errorf("slave committed %d times for %d chunks: statements ran outside a transaction", got, rep.Chunks)
	}
	assertStateEqual(t, rig.nodes[0], rig.nodes[1], "a")
}

// TestApplyChunkMixedIsOneTransaction: a chunk that still mixes DDL and rows
// (an older or foreign dump source) is one transaction like any other — no
// INSERT of it runs in autocommit.
func TestApplyChunkMixedIsOneTransaction(t *testing.T) {
	rig := newRig(t, 1, engine.Options{})
	rig.provision(t, "a", 0)
	cn, err := rig.nodes[0].Connect("a")
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	apply := func(stmts ...string) uint64 {
		t.Helper()
		before := slaveCommits(t, rig, 0, "a")
		if err := applyChunk(cn, &step1Chunk{stmts: stmts}); err != nil {
			t.Fatal(err)
		}
		return slaveCommits(t, rig, 0, "a") - before
	}
	if n := apply("CREATE TABLE x (id INT PRIMARY KEY)"); n != 1 {
		t.Errorf("schema chunk committed %d times, want 1", n)
	}
	mixed := apply(
		"CREATE TABLE y (id INT PRIMARY KEY)",
		"INSERT INTO y (id) VALUES (1)",
		"INSERT INTO y (id) VALUES (2)",
		"INSERT INTO x (id) VALUES (1)",
		"CREATE TABLE z (id INT PRIMARY KEY)",
		"INSERT INTO z (id) VALUES (1)",
		"INSERT INTO z (id) VALUES (2)")
	if mixed != 1 {
		t.Errorf("mixed chunk committed %d times, want 1", mixed)
	}
	for table, want := range map[string]int64{"x": 1, "y": 2, "z": 2} {
		res, err := cn.Exec("SELECT COUNT(*) FROM " + table)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].Int; got != want {
			t.Errorf("%s has %d rows, want %d", table, got, want)
		}
	}
	// A failing INSERT rolls the chunk's rows back and leaves the session usable.
	if err := applyChunk(cn, &step1Chunk{stmts: []string{
		"INSERT INTO x (id) VALUES (2)", "INSERT INTO nosuch (id) VALUES (1)"}}); err == nil {
		t.Fatal("chunk with a bad INSERT applied cleanly")
	}
	if res, err := cn.Exec("SELECT COUNT(*) FROM x"); err != nil || res.Rows[0][0].Int != 1 {
		t.Errorf("after a failed chunk x = %v, %v; want the run rolled back and the session usable", res, err)
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
