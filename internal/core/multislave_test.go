package core

import (
	"testing"
	"time"

	"madeus/internal/engine"
	"madeus/internal/wal"
)

func TestMigrateWithBackupSlave(t *testing.T) {
	rig := newRig(t, 3, engine.Options{})
	rig.provision(t, "a", 60)
	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{
		Strategy: Madeus,
		Backups:  []string{"node2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dest != "node1" {
		t.Errorf("Dest = %s, want node1 (primary healthy)", rep.Dest)
	}
	if len(rep.Discarded) != 0 {
		t.Errorf("Discarded = %v", rep.Discarded)
	}
	// The extra synchronized copy was dropped after switch-over.
	if _, ok := rig.nodes[2].Engine.Database("a"); ok {
		t.Error("backup copy left behind on node2")
	}
	c := rig.connect(t, "a")
	defer c.Close()
	res, err := c.Exec("SELECT COUNT(*) FROM acct")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 60 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestBackupErrors(t *testing.T) {
	rig := newRig(t, 2, engine.Options{})
	rig.provision(t, "a", 10)
	if _, err := rig.mw.Migrate("a", "node1", MigrateOptions{Backups: []string{"ghost"}}); err == nil {
		t.Error("unknown backup: want error")
	}
	if _, err := rig.mw.Migrate("a", "node1", MigrateOptions{Backups: []string{"node0"}}); err == nil {
		t.Error("backup == source: want error")
	}
	if _, err := rig.mw.Migrate("a", "node1", MigrateOptions{Backups: []string{"node1"}}); err == nil {
		t.Error("backup == dest: want error")
	}
}

// killInStep3 arranges for node i to die mid-propagation: its restore is
// held until the writers have linked syncsets, and the first dial its
// propagator then makes kills it.
func killInStep3(t *testing.T, rig *testRig, i int) {
	tn, _ := rig.mw.Tenant("a")
	capture, die := captureDuringRestore(t, tn, 8), inStep3(tn, rig.nodes[i].Close)
	rig.hook(i, func(call int) { capture(call); die(call) })
}

// TestPrimarySlaveFailurePromotesBackup kills the primary destination
// mid-propagation; the migration must finish on the backup (Sec 4.2).
func TestPrimarySlaveFailurePromotesBackup(t *testing.T) {
	rig := newRig(t, 3, engine.Options{
		WAL: wal.Options{SyncDelay: 2 * time.Millisecond, Mode: wal.GroupCommit},
	})
	rig.provision(t, "a", 120)

	const writers = 4
	stop := make(chan struct{})
	done := make(chan int, writers)
	for w := 0; w < writers; w++ {
		go loadgen(t, rig, "a", w, 5*time.Millisecond, stop, done)
	}
	time.Sleep(50 * time.Millisecond)

	// Kill node1 (the primary destination) while syncsets are propagating.
	killInStep3(t, rig, 1)
	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{
		Strategy: Madeus,
		Backups:  []string{"node2"},
	})
	close(stop)
	for w := 0; w < writers; w++ {
		<-done
	}
	if err != nil {
		t.Fatalf("migration should survive primary slave failure: %v", err)
	}
	if rep.Dest != "node2" {
		t.Errorf("Dest = %s, want node2 (promoted backup)", rep.Dest)
	}
	found := false
	for _, d := range rep.Discarded {
		if d == "node1" {
			found = true
		}
	}
	if !found {
		t.Errorf("Discarded = %v, want node1 listed", rep.Discarded)
	}
	// The tenant answers on node2.
	tn, _ := rig.mw.Tenant("a")
	node, _ := tn.Node()
	if node.BackendName() != "node2" {
		t.Errorf("tenant on %s", node.BackendName())
	}
	c := rig.connect(t, "a")
	defer c.Close()
	if _, err := c.Exec("SELECT COUNT(*) FROM acct"); err != nil {
		t.Fatalf("tenant unusable after promotion: %v", err)
	}
}

// TestBackupSlaveFailureContinuesOnPrimary kills the BACKUP mid-migration;
// the migration must finish on the primary.
func TestBackupSlaveFailureContinuesOnPrimary(t *testing.T) {
	rig := newRig(t, 3, engine.Options{
		WAL: wal.Options{SyncDelay: 2 * time.Millisecond, Mode: wal.GroupCommit},
	})
	rig.provision(t, "a", 120)

	const writers = 4
	stop := make(chan struct{})
	done := make(chan int, writers)
	for w := 0; w < writers; w++ {
		go loadgen(t, rig, "a", w, 5*time.Millisecond, stop, done)
	}
	time.Sleep(50 * time.Millisecond)
	killInStep3(t, rig, 2) // kill the backup
	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{
		Strategy: Madeus,
		Backups:  []string{"node2"},
	})
	close(stop)
	for w := 0; w < writers; w++ {
		<-done
	}
	if err != nil {
		t.Fatalf("migration should survive backup failure: %v", err)
	}
	if rep.Dest != "node1" {
		t.Errorf("Dest = %s, want node1", rep.Dest)
	}
	if len(rep.Discarded) != 1 || rep.Discarded[0] != "node2" {
		t.Errorf("Discarded = %v, want [node2]", rep.Discarded)
	}
}

// TestIndexesSurviveMigration: the dump carries CREATE INDEX statements, so
// the slave is rebuilt with its indexes (Sec 5.5: restoring "not only
// inserts data but also ... creates indexes").
func TestIndexesSurviveMigration(t *testing.T) {
	rig := newRig(t, 2, engine.Options{})
	rig.provision(t, "a", 40)
	c := rig.connect(t, "a")
	mustExecAll(t, c, "CREATE INDEX acct_bal ON acct (bal)")
	c.Close()

	if _, err := rig.mw.Migrate("a", "node1", MigrateOptions{Strategy: Madeus}); err != nil {
		t.Fatal(err)
	}
	c2 := rig.connect(t, "a")
	defer c2.Close()
	res, err := c2.Exec("SELECT COUNT(*) FROM acct WHERE bal = 100")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 40 {
		t.Errorf("indexed count on slave = %v", res.Rows[0][0])
	}
	// The index DDL survives in the destination's dump.
	dump := nodeDump(t, rig.nodes[1], "a")
	found := false
	for _, line := range dump {
		if line == "CREATE INDEX acct_bal ON acct (bal)" {
			found = true
		}
	}
	if !found {
		t.Errorf("slave dump missing index DDL: %v", dump[:2])
	}
}
