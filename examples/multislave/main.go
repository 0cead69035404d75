// Multislave: the Section 4.2 fault-tolerance extension. The migration
// streams the snapshot and syncsets to TWO slaves at once; this example
// kills the primary destination mid-migration and shows the backup being
// promoted, with the workload never losing its data.
//
//	go run ./examples/multislave
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"madeus/internal/cluster"
	"madeus/internal/core"
	"madeus/internal/engine"
	"madeus/internal/wal"
	"madeus/internal/wire"
)

// dyingNode is the primary destination with a scripted death: it crashes at
// the first connection the middleware opens to it once syncset propagation
// has begun. A migration lasts only as long as its work, so "mid-migration"
// is a point in the protocol, not a delay after its start.
type dyingNode struct {
	*cluster.Node
	mw   *core.Middleware
	once sync.Once
}

func (d *dyingNode) Connect(db string) (*wire.Client, error) {
	if t, ok := d.mw.Tenant(db); ok {
		if phase, _, _ := t.Progress(); phase == "step3.propagate" || phase == "step4.switchover" {
			d.once.Do(func() {
				fmt.Println("!! node1 (the primary destination) just crashed")
				d.Node.Close()
			})
		}
	}
	return d.Node.Connect(db)
}

func main() {
	opts := cluster.NodeOptions{Engine: engine.Options{
		WAL:         wal.Options{SyncDelay: 2 * time.Millisecond, Mode: wal.GroupCommit},
		LockTimeout: time.Second,
	}}
	nodes := make([]*cluster.Node, 3)
	for i := range nodes {
		n, err := cluster.NewNode(fmt.Sprintf("node%d", i), opts)
		check(err)
		defer n.Close()
		nodes[i] = n
	}

	mw, err := core.New(core.Options{})
	check(err)
	defer mw.Close()
	for _, n := range nodes {
		mw.AddNode(n)
	}
	mw.AddNode(&dyingNode{Node: nodes[1], mw: mw})
	check(mw.ProvisionTenant("shop", "node0"))

	c, err := wire.Dial(mw.Addr(), "shop")
	check(err)
	defer c.Close()
	mustExec(c, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	for i := 0; i < 200; i += 50 {
		sql := "INSERT INTO t (id, v) VALUES "
		for j := i; j < i+50; j++ {
			if j > i {
				sql += ", "
			}
			sql += fmt.Sprintf("(%d, %d)", j, j)
		}
		mustExec(c, sql)
	}

	// A writer keeps the syncset stream busy.
	stop := make(chan struct{})
	go func() {
		w, err := wire.Dial(mw.Addr(), "shop")
		check(err)
		defer w.Close()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			// Errors are expected around the crash and the switch-over
			// drains; the writer just keeps pushing.
			_, _ = w.Exec("BEGIN")
			_, _ = w.Exec(fmt.Sprintf("SELECT v FROM t WHERE id = %d", i%200))
			_, _ = w.Exec(fmt.Sprintf("UPDATE t SET v = v + 1 WHERE id = %d", i%200))
			_, _ = w.Exec("COMMIT")
			time.Sleep(3 * time.Millisecond)
		}
	}()
	time.Sleep(50 * time.Millisecond)

	fmt.Println("migrating shop: node0 -> node1, with node2 as a backup slave")
	rep, err := mw.Migrate("shop", "node1", core.MigrateOptions{
		Strategy: core.Madeus,
		Backups:  []string{"node2"},
	})
	check(err)
	close(stop)

	fmt.Printf("\nmigration finished on %s (discarded: %v)\n", rep.Dest, rep.Discarded)
	fmt.Println(rep)
	res := mustExec(c, "SELECT COUNT(*) FROM t")
	fmt.Printf("tenant intact on the promoted slave: %v rows\n", res.Rows[0][0])
}

func mustExec(c *wire.Client, sql string) *engine.Result {
	res, err := c.Exec(sql)
	if err != nil {
		log.Fatalf("%s: %v", sql, err)
	}
	return res
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
