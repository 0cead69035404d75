package core

import (
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

	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{
		Strategy:        Madeus,
		ChunkStatements: 4,
		KeepSource:      true,
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

	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{
		Strategy:        Madeus,
		ChunkStatements: 2,
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

	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{
		Strategy:        Madeus,
		Backups:         []string{"node2"},
		ChunkStatements: 4,
		KeepSource:      true,
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
