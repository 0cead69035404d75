// Command dbnode runs one DBMS node: a shared-process engine instance
// (multiple tenant databases, one WAL) behind the wire protocol.
//
// Usage:
//
//	dbnode -listen 127.0.0.1:7001 -db tenantA -db tenantB
//
// The simulated cost knobs (-fsync, -stmtcost, -slots) mirror the paper's
// testbed hardware; see DESIGN.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"madeus/internal/cluster"
	"madeus/internal/engine"
	"madeus/internal/wal"
)

type stringList []string

func (s *stringList) String() string     { return fmt.Sprint(*s) }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var dbs stringList
	var (
		listen    = flag.String("listen", "127.0.0.1:0", "listen address")
		fsync     = flag.Duration("fsync", 2*time.Millisecond, "simulated WAL fsync latency")
		stmt      = flag.Duration("stmtcost", 0, "simulated per-statement CPU cost")
		slots     = flag.Int("slots", 4, "concurrent statement execution slots")
		serial    = flag.Bool("serialcommit", false, "disable group commit (one fsync per commit)")
		dataDir   = flag.String("data", "", "data directory for a durable node: on-disk WAL + checkpoints, recovered on boot (empty: in-memory)")
		ckptEvery = flag.Duration("checkpoint-every", 30*time.Second, "background checkpoint interval for a durable node (0 disables)")
	)
	flag.Var(&dbs, "db", "tenant database to create at startup (repeatable; pre-existing ones recovered from -data are kept)")
	flag.Parse()

	mode := wal.GroupCommit
	if *serial {
		mode = wal.SerialCommit
	}
	node, err := cluster.NewNode("dbnode", cluster.NodeOptions{
		Listen: *listen,
		Engine: engine.Options{
			WAL:             wal.Options{SyncDelay: *fsync, Mode: mode},
			ExecSlots:       *slots,
			StmtCost:        *stmt,
			LockTimeout:     time.Second,
			DataDir:         *dataDir,
			CheckpointEvery: *ckptEvery,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbnode:", err)
		os.Exit(1)
	}
	defer node.Close()
	if *dataDir != "" {
		rec := node.Engine.LastRecovery()
		fmt.Printf("dbnode: recovered %s in %v (checkpoint LSN %d, %d WAL records scanned, %d units replayed, databases: %v)\n",
			*dataDir, rec.Duration.Round(time.Millisecond), rec.CheckpointLSN,
			rec.Records, rec.Applied, node.Engine.Databases())
	}
	for _, db := range dbs {
		if _, ok := node.Engine.Database(db); ok {
			continue // recovered from the data dir
		}
		if err := node.Engine.CreateDatabase(db); err != nil {
			fmt.Fprintln(os.Stderr, "dbnode:", err)
			os.Exit(1)
		}
	}

	fmt.Printf("dbnode listening on %s (databases: %v, fsync=%v, group commit=%v)\n",
		node.Addr(), dbs, *fsync, !*serial)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("dbnode: shutting down")
}
