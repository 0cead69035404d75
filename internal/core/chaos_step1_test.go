//go:build faultinject

package core

// Pipelined Step-1 backpressure under chaos: a destination whose appliers
// are artificially slowed must throttle the dump stage through the bounded
// queues and the flow transfer budget — peak resident transfer bytes stay
// under the configured cap and the migration still completes. Run with:
// go test -tags faultinject -race .

import (
	"testing"
	"time"

	"madeus/internal/engine"
	"madeus/internal/fault"
	"madeus/internal/flow"
)

func TestStep1SlowDestinationBackpressure(t *testing.T) {
	t.Cleanup(fault.Reset)
	const capBytes = 4096
	rig := newFlowRig(t, Options{Flow: flow.Config{MaxTransferBytes: capBytes}},
		engine.Options{DumpBatch: 5}, engine.Options{DumpBatch: 5})
	rig.provision(t, "a", 300)
	tn, _ := rig.mw.Tenant("a")

	// Writers keep the source busy while every chunk apply on the slave
	// drags its feet.
	const writers = 2
	stop := make(chan struct{})
	done := make(chan int, writers)
	for w := 0; w < writers; w++ {
		go loadgen(t, rig, "a", w, 3*time.Millisecond, stop, done)
	}
	time.Sleep(30 * time.Millisecond)

	fault.Enable(faultStep1Restore, fault.Policy{Delay: 2 * time.Millisecond, Times: 100})
	rig.mw.dumpChunk = 2
	rep, err := rig.mw.Migrate("a", "node1", MigrateOptions{
		Strategy: Madeus,
	})
	fault.Reset()
	if err != nil {
		t.Fatalf("migration under backpressure: %v", err)
	}
	if rep.Chunks < 10 {
		t.Errorf("Chunks = %d, want a real stream for 300 rows at DumpBatch 5", rep.Chunks)
	}
	if rep.PeakTransferBytes <= 0 || rep.PeakTransferBytes > capBytes {
		t.Errorf("PeakTransferBytes = %d, want in (0, %d]", rep.PeakTransferBytes, capBytes)
	}
	if flow.TransferBytes() != 0 {
		t.Errorf("flow.transfer.bytes gauge = %d after migration, want 0", flow.TransferBytes())
	}

	close(stop)
	total := 0
	for w := 0; w < writers; w++ {
		total += <-done
	}
	node, _ := tn.Node()
	if node.BackendName() != "node1" {
		t.Errorf("tenant on %s, want node1", node.BackendName())
	}
	if got, want := sumBal(t, node, "a"), 300*100+total; got != want {
		t.Errorf("final balance sum = %d, want %d", got, want)
	}
}
