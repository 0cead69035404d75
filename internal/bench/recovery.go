package bench

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"madeus/internal/engine"
	"madeus/internal/wal"
)

// Recovery is the crash-recovery ablation (not a paper figure): the same
// seeded transactional workload is committed into a durable engine several
// times, each leg checkpointing at a different interval (measured in
// committed transactions), then the engine is killed without shutdown and
// reopened. Columns: checkpoint interval, WAL bytes scanned at recovery,
// WAL records decoded, redo units applied past the checkpoint, and the
// recovery wall time. The contrast is the durability section's claim that
// checkpoints bound replay: without one, recovery replays the whole history;
// with frequent ones, it replays only the tail since the last checkpoint.
func Recovery(cfg Config) (*Table, error) {
	// Scale the history length like the figures scale populations. The
	// fsync delay is zeroed for the workload phase — it would only slow
	// down producing the log, and replay suppresses fsyncs anyway, so the
	// measured recovery time is pure redo cost either way.
	txns := 48000 / cfg.RowFactor
	if txns < 200 {
		txns = 200
	}
	legs := []struct {
		label string
		every int // commits between checkpoints; 0 = never
	}{
		{"none", 0},
		{fmt.Sprintf("every %d txns", txns/4), txns / 4},
		{fmt.Sprintf("every %d txns", txns/16), txns / 16},
	}

	t := &Table{
		Title: fmt.Sprintf("recovery: crash-recovery cost vs checkpoint interval (%d txns)", txns),
		Header: []string{"checkpoint", "wal bytes", "records", "applied",
			"recovery"},
	}
	for _, leg := range legs {
		stats, err := recoveryLeg(cfg, txns, leg.every)
		if err != nil {
			return nil, fmt.Errorf("bench: recovery %s leg: %w", leg.label, err)
		}
		t.AddRow(leg.label,
			fmt.Sprintf("%.1f KiB", float64(stats.Bytes)/(1<<10)),
			fmt.Sprint(stats.Records),
			fmt.Sprint(stats.Applied),
			stats.Duration.Round(100*time.Microsecond).String())
	}
	t.Note("each leg: same seeded workload, kill -9 (no shutdown), reopen; "+
		"recovery stats from engine.LastRecovery; recovered state verified "+
		"against the committed row count (%d txns)", txns)
	return t, nil
}

// recoveryLeg runs one workload-crash-recover cycle and returns the reopened
// engine's recovery stats after verifying the committed prefix survived.
func recoveryLeg(cfg Config, txns, ckptEvery int) (engine.RecoveryStats, error) {
	var zero engine.RecoveryStats
	dir, err := os.MkdirTemp("", "madeus-bench-recovery-")
	if err != nil {
		return zero, err
	}
	defer os.RemoveAll(dir)

	opts := engine.Options{
		WAL:         wal.Options{Mode: wal.GroupCommit},
		LockTimeout: time.Second,
		DataDir:     dir,
	}
	e, err := engine.Open(opts)
	if err != nil {
		return zero, err
	}
	if err := e.CreateDatabase("shop"); err != nil {
		e.Crash()
		return zero, err
	}
	sess, err := e.NewSession("shop")
	if err != nil {
		e.Crash()
		return zero, err
	}
	exec := func(stmt string) error {
		_, eerr := sess.Exec(stmt)
		return eerr
	}
	if err := exec("CREATE TABLE audit (id INT PRIMARY KEY, v TEXT, n INT)"); err != nil {
		e.Crash()
		return zero, err
	}

	// Seeded history: every transaction inserts one audit row and updates
	// an earlier one, so WAL volume grows linearly and replay touches both
	// insert and update redo paths. The seed is fixed so every leg commits
	// an identical history — only the checkpoint cadence differs.
	rng := rand.New(rand.NewSource(20150831))
	for i := 1; i <= txns; i++ {
		if err := exec("BEGIN"); err != nil {
			e.Crash()
			return zero, err
		}
		if err := exec(fmt.Sprintf(
			"INSERT INTO audit (id, v, n) VALUES (%d, 'payload %d %x', %d)",
			i, i, rng.Int63(), rng.Intn(1000))); err != nil {
			e.Crash()
			return zero, err
		}
		if err := exec(fmt.Sprintf("UPDATE audit SET n = %d WHERE id = %d",
			rng.Intn(1000), rng.Intn(i)+1)); err != nil {
			e.Crash()
			return zero, err
		}
		if err := exec("COMMIT"); err != nil {
			e.Crash()
			return zero, err
		}
		// Never checkpoint on the final commit: the crash should land one
		// full interval past the last checkpoint, so the leg measures the
		// tail replay a real mid-interval crash would pay.
		if ckptEvery > 0 && i%ckptEvery == 0 && i != txns {
			if _, err := e.Checkpoint(); err != nil {
				e.Crash()
				return zero, err
			}
		}
	}
	e.Crash()

	e2, err := engine.Open(opts)
	if err != nil {
		return zero, err
	}
	defer e2.Crash()
	sess2, err := e2.NewSession("shop")
	if err != nil {
		return zero, err
	}
	rows, err := sess2.RowCount("audit")
	if err != nil {
		return zero, err
	}
	if rows != txns {
		return zero, fmt.Errorf("recovered %d audit rows, committed %d", rows, txns)
	}
	return e2.LastRecovery(), nil
}
