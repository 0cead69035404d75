package core

import (
	"testing"
	"time"

	"madeus/internal/cluster"
	"madeus/internal/engine"
	"madeus/internal/flow"
)

// TestMigrateBetweenRemoteBackends drives a migration where the middleware
// knows the nodes only by wire address (cluster.Remote) — the deployment
// shape of cmd/madeusd with separate dbnode processes.
func TestMigrateBetweenRemoteBackends(t *testing.T) {
	// The "remote" nodes: in-process servers reached purely by address.
	var remotes []*cluster.Remote
	for i := 0; i < 2; i++ {
		n, err := cluster.NewNode("ignored", cluster.NodeOptions{Engine: engine.Options{}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		remotes = append(remotes, &cluster.Remote{Name: nodeName(i), Addr: n.Addr()})
	}

	mw, err := New(Options{Flow: flow.Config{Deadline: 20 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mw.Close)
	for _, r := range remotes {
		mw.AddNode(r)
	}

	if err := mw.ProvisionTenant("shop", "node0"); err != nil {
		t.Fatal(err)
	}
	c, err := remotes[0].Connect("shop")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO t (id, v) VALUES (1, 10), (2, 20)"); err != nil {
		t.Fatal(err)
	}
	c.Close()

	rep, err := mw.Migrate("shop", "node1", MigrateOptions{Strategy: Madeus})
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if rep.Source != "node0" || rep.Dest != "node1" {
		t.Errorf("report source/dest = %s/%s", rep.Source, rep.Dest)
	}

	// The tenant now answers on node1, and node0's copy is gone.
	c1, err := remotes[1].Connect("shop")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	res, err := c1.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 2 {
		t.Errorf("count on dest = %v", res.Rows[0][0])
	}
	if _, err := remotes[0].Connect("shop"); err == nil {
		t.Error("source copy still answering after migration")
	}
}

func nodeName(i int) string {
	return map[int]string{0: "node0", 1: "node1"}[i]
}
