package engine

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

// openDurable opens a durable engine on dir (no background checkpointer:
// the tests drive checkpoints explicitly so runs are deterministic).
func openDurable(t *testing.T, dir string) *Engine {
	t.Helper()
	e, err := Open(Options{LockTimeout: time.Second, DataDir: dir})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return e
}

// durableWorkload drives a seeded random transaction mix on sess and applies
// each COMMITTED transaction to the oracle engine's session as well — the
// oracle is an in-memory engine holding exactly the committed prefix. Ops
// mixes inserts, updates, deletes, and the occasional DDL.
func durableWorkload(t *testing.T, rng *rand.Rand, sess, oracle *Session, txns int, nextID *int) {
	t.Helper()
	mustBoth := func(sql string) {
		mustExec(t, sess, sql)
		mustExec(t, oracle, sql)
	}
	for i := 0; i < txns; i++ {
		if rng.Intn(100) < 8 {
			// DDL is non-transactional: applied (and replayed) immediately.
			idx := fmt.Sprintf("idx_%d", *nextID)
			mustBoth(fmt.Sprintf("CREATE INDEX %s ON kv (n)", idx))
			mustBoth("DROP INDEX " + idx + " ON kv")
		}
		commit := rng.Intn(100) < 75
		var stmts []string
		for n := rng.Intn(3) + 1; n > 0; n-- {
			switch rng.Intn(3) {
			case 0:
				*nextID++
				stmts = append(stmts, fmt.Sprintf(
					"INSERT INTO kv (id, v, n) VALUES (%d, 'v%d', %d)", *nextID, *nextID, rng.Intn(50)))
			case 1:
				stmts = append(stmts, fmt.Sprintf(
					"UPDATE kv SET n = n + 1, v = 'u%d' WHERE id = %d", i, rng.Intn(*nextID+1)))
			default:
				stmts = append(stmts, fmt.Sprintf("DELETE FROM kv WHERE id = %d", rng.Intn(*nextID+1)))
			}
		}
		mustExec(t, sess, "BEGIN")
		for _, s := range stmts {
			mustExec(t, sess, s)
		}
		if !commit {
			mustExec(t, sess, "ROLLBACK")
			continue
		}
		mustExec(t, sess, "COMMIT")
		// Only now does the transaction enter the oracle.
		mustExec(t, oracle, "BEGIN")
		for _, s := range stmts {
			mustExec(t, oracle, s)
		}
		mustExec(t, oracle, "COMMIT")
	}
}

// newOracle builds the in-memory committed-prefix oracle engine.
func newOracle(t *testing.T) *Session {
	t.Helper()
	e := New(Options{LockTimeout: time.Second})
	t.Cleanup(e.Close)
	if err := e.CreateDatabase("tenant"); err != nil {
		t.Fatal(err)
	}
	s, err := e.NewSession("tenant")
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "CREATE TABLE kv (id INT PRIMARY KEY, v TEXT, n INT)")
	return s
}

// requireStateEqual fails unless the recovered database matches the oracle.
func requireStateEqual(t *testing.T, oracle *Session, e *Engine) {
	t.Helper()
	sess, err := e.NewSession("tenant")
	if err != nil {
		t.Fatalf("recovered engine lost the tenant: %v", err)
	}
	defer sess.Close()
	eq, diff, err := StateEqual(oracle, sess)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("recovered state differs from committed-prefix oracle: %s", diff)
	}
}

// TestRecoverCommittedPrefix kills a durable engine mid-workload (kill -9:
// the WAL tail past the last fsync is dropped) and verifies a fresh Open
// rebuilds exactly the committed prefix, matched against an in-memory oracle
// that applied only the committed transactions. Seeds are in the subtest
// names for deterministic replay.
func TestRecoverCommittedPrefix(t *testing.T) {
	for _, seed := range []int64{3, 99, 4096} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			e := openDurable(t, dir)
			if err := e.CreateDatabase("tenant"); err != nil {
				t.Fatal(err)
			}
			sess, err := e.NewSession("tenant")
			if err != nil {
				t.Fatal(err)
			}
			mustExec(t, sess, "CREATE TABLE kv (id INT PRIMARY KEY, v TEXT, n INT)")
			oracle := newOracle(t)

			rng := rand.New(rand.NewSource(seed))
			nextID := 0
			durableWorkload(t, rng, sess, oracle, 40, &nextID)

			// An in-flight transaction at the crash: its writes may hit the
			// log buffer but there is no commit record, so recovery must
			// drop it (it never entered the oracle either).
			mustExec(t, sess, "BEGIN")
			nextID++
			mustExec(t, sess, fmt.Sprintf("INSERT INTO kv (id, v, n) VALUES (%d, 'lost', 0)", nextID))
			e.Crash()

			e2 := openDurable(t, dir)
			defer e2.Close()
			rec := e2.LastRecovery()
			if rec.Records == 0 || rec.Applied == 0 {
				t.Fatalf("recovery scanned %d records, applied %d units; want both > 0", rec.Records, rec.Applied)
			}
			requireStateEqual(t, oracle, e2)
		})
	}
}

// TestRecoverAfterCheckpointBoundsReplay checkpoints mid-workload and
// verifies (a) the crash recovery loads the checkpoint and replays only the
// WAL suffix past it, (b) the result still matches the oracle, and (c) the
// checkpoint retired the pre-rotation WAL segments.
func TestRecoverAfterCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir)
	if err := e.CreateDatabase("tenant"); err != nil {
		t.Fatal(err)
	}
	sess, err := e.NewSession("tenant")
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, sess, "CREATE TABLE kv (id INT PRIMARY KEY, v TEXT, n INT)")
	oracle := newOracle(t)

	rng := rand.New(rand.NewSource(11))
	nextID := 0
	durableWorkload(t, rng, sess, oracle, 30, &nextID)

	res := mustExec(t, sess, "CHECKPOINT")
	if !strings.HasPrefix(res.Tag, "CHECKPOINT ") {
		t.Fatalf("CHECKPOINT tag = %q", res.Tag)
	}
	// The checkpoint rotated the log and nothing held unresolved write
	// records, so the retired segments are gone: replay work is bounded by
	// the post-checkpoint suffix, not the life of the node.
	segs := walSegments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("WAL segments after checkpoint = %v, want the fresh one only", segs)
	}

	durableWorkload(t, rng, sess, oracle, 15, &nextID)
	totalRecords := e.WALStats().Records
	e.Crash()

	e2 := openDurable(t, dir)
	defer e2.Close()
	rec := e2.LastRecovery()
	if rec.CheckpointLSN == 0 {
		t.Fatal("recovery did not load the checkpoint")
	}
	if rec.Records >= totalRecords {
		t.Fatalf("recovery scanned %d records, want fewer than the %d ever logged (checkpoint must bound replay)",
			rec.Records, totalRecords)
	}
	requireStateEqual(t, oracle, e2)
}

// TestRecoverCheckpointOnly crashes immediately after a checkpoint: recovery
// must come entirely from the checkpoint image with zero replayed units.
func TestRecoverCheckpointOnly(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir)
	if err := e.CreateDatabase("tenant"); err != nil {
		t.Fatal(err)
	}
	sess, err := e.NewSession("tenant")
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, sess, "CREATE TABLE kv (id INT PRIMARY KEY, v TEXT, n INT)")
	mustExec(t, sess, "INSERT INTO kv (id, v, n) VALUES (1, 'a', 1), (2, 'b', 2)")
	oracle := newOracle(t)
	mustExec(t, oracle, "INSERT INTO kv (id, v, n) VALUES (1, 'a', 1), (2, 'b', 2)")

	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.Crash()

	e2 := openDurable(t, dir)
	rec := e2.LastRecovery()
	if rec.Applied != 0 {
		t.Fatalf("recovery applied %d units, want 0 (all state was checkpointed)", rec.Applied)
	}
	if rec.CheckpointLSN == 0 {
		t.Fatal("recovery did not load the checkpoint")
	}
	requireStateEqual(t, oracle, e2)

	// Third generation: the LSN sequence must continue PAST the checkpoint
	// after a checkpoint-only recovery (the reopened WAL is empty; a
	// restarted sequence would number new commits below the checkpoint LSN
	// and the applied-LSN gate would silently skip them next recovery).
	s2, err := e2.NewSession("tenant")
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s2, "INSERT INTO kv (id, v, n) VALUES (3, 'c', 3)")
	mustExec(t, oracle, "INSERT INTO kv (id, v, n) VALUES (3, 'c', 3)")
	e2.Crash()

	e3 := openDurable(t, dir)
	defer e3.Close()
	if rec := e3.LastRecovery(); rec.Applied == 0 {
		t.Fatal("second recovery applied no units; the post-checkpoint commit was lost")
	}
	requireStateEqual(t, oracle, e3)
}

// TestGracefulCloseLosesNothing reopens after Close (which flushes the WAL
// tail): even transactions committed microseconds before shutdown survive,
// and a transaction left open at shutdown does not.
func TestGracefulCloseLosesNothing(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir)
	if err := e.CreateDatabase("tenant"); err != nil {
		t.Fatal(err)
	}
	sess, err := e.NewSession("tenant")
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, sess, "CREATE TABLE kv (id INT PRIMARY KEY, v TEXT, n INT)")
	mustExec(t, sess, "INSERT INTO kv (id, v, n) VALUES (1, 'keep', 1)")
	mustExec(t, sess, "BEGIN")
	mustExec(t, sess, "INSERT INTO kv (id, v, n) VALUES (2, 'open-at-shutdown', 2)")
	e.Close()

	e2 := openDurable(t, dir)
	defer e2.Close()
	s2, err := e2.NewSession("tenant")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	n, err := s2.RowCount("kv")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("rows after graceful close + recover = %d, want 1 (committed row only)", n)
	}
}

// TestRecoverDroppedDatabase verifies catalog DDL replays: a dropped tenant
// stays dropped across a crash even though its CREATE is still in the log.
func TestRecoverDroppedDatabase(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir)
	for _, name := range []string{"keep", "gone"} {
		if err := e.CreateDatabase(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.DropDatabase("gone"); err != nil {
		t.Fatal(err)
	}
	e.Crash()

	e2 := openDurable(t, dir)
	defer e2.Close()
	if _, ok := e2.Database("keep"); !ok {
		t.Error("database keep lost in recovery")
	}
	if _, ok := e2.Database("gone"); ok {
		t.Error("dropped database resurrected by recovery")
	}
}

// TestRecoverSignedExtremes: the least INT, -1 and a negative FLOAT in
// exponent form survive a checkpoint load, a crash's redo and a clean
// close's redo, as a key and as a value, written by literal and by computed
// statements. The least INT reaches the checkpoint and the log as the one
// literal -9223372036854775808, which recovery once read as the negation
// of an out-of-range number, so the node could not open.
func TestRecoverSignedExtremes(t *testing.T) {
	before := []string{
		"CREATE TABLE m (id INT PRIMARY KEY, n INT, x FLOAT)",
		"INSERT INTO m (id, n, x) VALUES (1, -9223372036854775807 - 1, -2.5e-07)",
		"INSERT INTO m (id, n, x) VALUES (2, -9223372036854775808, -2.5e-07), (3, -1, -1)",
	}
	after := []string{
		"INSERT INTO m (id, n, x) VALUES (-9223372036854775808, -1, -0.00000025), (-1, 0, 0)",
		"UPDATE m SET n = -9223372036854775807 - 1, x = x * 2 WHERE id = 3",
		"DELETE FROM m WHERE id = -1",
		"UPDATE m SET x = -2.5e-07 WHERE id = -9223372036854775808",
	}
	oracle := newOracle(t)
	dir := t.TempDir()
	e := openDurable(t, dir)
	if err := e.CreateDatabase("tenant"); err != nil {
		t.Fatal(err)
	}
	sess, _ := e.NewSession("tenant")
	mustExec(t, sess, "CREATE TABLE kv (id INT PRIMARY KEY, v TEXT, n INT)")
	for _, q := range before {
		mustExec(t, oracle, q)
		mustExec(t, sess, q)
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, q := range after {
		mustExec(t, oracle, q)
		mustExec(t, sess, q)
	}
	e.Crash()

	e2 := openDurable(t, dir)
	if rec := e2.LastRecovery(); rec.CheckpointLSN == 0 || rec.Applied == 0 {
		t.Fatalf("recovery loaded checkpoint %d and applied %d units, want both", rec.CheckpointLSN, rec.Applied)
	}
	requireStateEqual(t, oracle, e2)
	e2.Close()

	e3 := openDurable(t, dir)
	defer e3.Close()
	requireStateEqual(t, oracle, e3)
}

// TestRedoReplaysLiveState is the redo contract as a property: on a durable
// engine, seeded random literal and computed INSERTs, UPDATEs and DELETEs —
// signed and exponent numbers, −0, quotes, NULLs, INTs into a FLOAT column,
// column lists in any order, some rolled back — leave a state that a close
// and reopen rebuild exactly, from a mid-run checkpoint plus the redo
// records after it. A literal INSERT is replayed from its own text, every
// other write from the values it logged.
func TestRedoReplaysLiveState(t *testing.T) {
	for _, seed := range []int64{5, 77, 2024} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			e := openDurable(t, dir)
			if err := e.CreateDatabase("tenant"); err != nil {
				t.Fatal(err)
			}
			live, _ := e.NewSession("tenant")
			mustExec(t, live, "CREATE TABLE r (id INT PRIMARY KEY, n INT, x FLOAT, s TEXT, b BOOL)")
			mustExec(t, live, "CREATE INDEX r_n ON r (n)")
			const stmts = 80
			ids := 0
			for i := 0; i < stmts; i++ {
				if i == stmts/2 {
					if _, err := e.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				explicit := rng.Intn(4) == 0
				if explicit {
					mustExec(t, live, "BEGIN")
				}
				mustExec(t, live, randomWrite(rng, &ids))
				if explicit {
					if rng.Intn(3) == 0 {
						mustExec(t, live, "ROLLBACK")
					} else {
						mustExec(t, live, "COMMIT")
					}
				}
			}
			want, err := live.Dump()
			if err != nil {
				t.Fatal(err)
			}
			e.Close()

			e2 := openDurable(t, dir)
			defer e2.Close()
			s2, _ := e2.NewSession("tenant")
			got, err := s2.Dump()
			if err != nil {
				t.Fatal(err)
			}
			if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
				t.Fatalf("reopened state differs from the live one:\n got %s\nwant %s", g, w)
			}
		})
	}
}

// randomWrite draws one write on table r: a multi-row INSERT of fresh keys,
// literal or with computed items, an UPDATE or a DELETE by key or by range.
func randomWrite(rng *rand.Rand, ids *int) string {
	type domain struct{ lits, exprs []string }
	ints := domain{[]string{"0", "7", "-1", "-9223372036854775808", "9223372036854775807"},
		[]string{"-9223372036854775807 - 1", "3 * -2", "- 5"}}
	floats := domain{[]string{"0.5", "-2.5e-07", "1e+21", "-0.0", "1234567.5", "3", "-4"},
		[]string{"1.5 * -2", "-(0.25)", "2 / 8"}}
	texts := domain{lits: []string{"'a'", "''", "'it''s'", "'-5'", "'x -- y'"}}
	bools := domain{lits: []string{"TRUE", "FALSE"}}
	// pick draws a value of d: NULL now and then, an expression now and
	// then when computed items are allowed.
	pick := func(d domain, computed bool) string {
		switch {
		case rng.Intn(6) == 0:
			return "NULL"
		case computed && d.exprs != nil && rng.Intn(2) == 0:
			return d.exprs[rng.Intn(len(d.exprs))]
		}
		return d.lits[rng.Intn(len(d.lits))]
	}
	switch rng.Intn(4) {
	case 0, 1:
		computed := rng.Intn(2) == 0
		cols := []string{"n", "x", "s", "b"}
		rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		cols = append(cols[:rng.Intn(len(cols)+1)], "id")
		rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		var rows []string
		for n := rng.Intn(4) + 1; n > 0; n-- {
			*ids++
			var vals []string
			for _, c := range cols {
				switch c {
				case "id":
					vals = append(vals, fmt.Sprint(*ids*(1-2*rng.Intn(2))))
				case "n":
					vals = append(vals, pick(ints, computed))
				case "x":
					if rng.Intn(4) == 0 {
						vals = append(vals, pick(ints, computed)) // widened on the way in
					} else {
						vals = append(vals, pick(floats, computed))
					}
				case "s":
					vals = append(vals, pick(texts, computed))
				default:
					vals = append(vals, pick(bools, computed))
				}
			}
			rows = append(rows, "("+strings.Join(vals, ", ")+")")
		}
		return "INSERT INTO r (" + strings.Join(cols, ", ") + ") VALUES " + strings.Join(rows, ", ")
	case 2:
		set := []string{
			"n = " + pick(ints, true), "n = n + 1", "x = " + pick(floats, true), "x = x * -2",
			"s = " + pick(texts, true), "b = NOT b",
		}[rng.Intn(6)]
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("UPDATE r SET %s WHERE id = %d", set, rng.Intn(2*(*ids)+1)-*ids)
		}
		return fmt.Sprintf("UPDATE r SET %s WHERE n < %d", set, rng.Intn(10)-5)
	default:
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("DELETE FROM r WHERE id = %d", rng.Intn(2*(*ids)+1)-*ids)
		}
		return fmt.Sprintf("DELETE FROM r WHERE x > %d", rng.Intn(1000))
	}
}

// walSegments lists the WAL segment file names in dir.
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), "wal-") && strings.HasSuffix(ent.Name(), ".log") {
			segs = append(segs, ent.Name())
		}
	}
	return segs
}

// TestRecoverRestoredChunks restores a dump the way a migration's restore
// does — the schema prologue as one transaction, every row chunk joined
// into one row statement in autocommit — crashes the engine, and requires
// recovery to rebuild the source's state: by WAL replay, and separately
// from a checkpoint taken after the restore. The schema chunk's DDL is
// logged inside its scope and a row chunk is one statement, so each chunk
// costs one fsync.
func TestRecoverRestoredChunks(t *testing.T) {
	src := newOracle(t)
	mustExec(t, src, "CREATE INDEX kv_n ON kv (n)")
	mustExec(t, src, "CREATE TABLE empty (id INT PRIMARY KEY)")
	mustExec(t, src, "CREATE TABLE log (id INT PRIMARY KEY, kv INT, f FLOAT, b BOOL)")
	for i := 0; i < 40; i++ {
		mustExec(t, src, fmt.Sprintf("INSERT INTO kv (id, v, n) VALUES (%d, 'v%d', %d)", i, i, i%5))
		mustExec(t, src, fmt.Sprintf("INSERT INTO log (id, kv, f, b) VALUES (%d, %d, %d.5, %v)", i, i, i, i%2 == 0))
	}
	mustExec(t, src, "INSERT INTO kv (id, v, n) VALUES (-9223372036854775807 - 1, '', NULL)")

	for _, fromCheckpoint := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", fromCheckpoint), func(t *testing.T) {
			dir := t.TempDir()
			e := openDurable(t, dir)
			if err := e.CreateDatabase("tenant"); err != nil {
				t.Fatal(err)
			}
			sess, err := e.NewSession("tenant")
			if err != nil {
				t.Fatal(err)
			}
			var fsyncs []uint64 // per chunk
			if _, err := src.DumpStream(3, func(stmts []string) error {
				before := e.WALStats().Fsyncs
				if len(fsyncs) == 0 {
					mustExec(t, sess, "BEGIN")
					for _, stmt := range stmts {
						mustExec(t, sess, stmt)
					}
					mustExec(t, sess, "COMMIT")
				} else {
					mustExec(t, sess, strings.Join(stmts, ""))
				}
				fsyncs = append(fsyncs, e.WALStats().Fsyncs-before)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i, n := range fsyncs {
				if n != 1 {
					t.Errorf("chunk %d paid %d fsyncs, want 1", i, n)
				}
			}
			if fromCheckpoint {
				if _, err := e.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			e.Crash()

			e2 := openDurable(t, dir)
			defer e2.Close()
			if rec := e2.LastRecovery(); (rec.CheckpointLSN != 0) != fromCheckpoint || (rec.Applied == 0) != fromCheckpoint {
				t.Errorf("recovery loaded checkpoint %d and applied %d units", rec.CheckpointLSN, rec.Applied)
			}
			requireStateEqual(t, src, e2)
		})
	}
}
