// Command madeusd runs the Madeus middleware in front of DBMS nodes.
//
// Nodes may be remote dbnode processes (-node name=addr) or booted inside
// this process for a self-contained demo (-localnode name). Tenants are
// registered with -tenant name@node (they must already exist on remote
// nodes; on local nodes and with -provision they are created).
//
//	dbnode -listen 127.0.0.1:7001 &
//	dbnode -listen 127.0.0.1:7002 &
//	madeusd -listen 127.0.0.1:6000 \
//	        -node node0=127.0.0.1:7001 -node node1=127.0.0.1:7002 \
//	        -tenant shop@node0 -provision
//
// Customers then connect to 127.0.0.1:6000 with database "shop"; operators
// drive migrations with cmd/madeusctl.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"madeus/internal/cluster"
	"madeus/internal/core"
	"madeus/internal/engine"
	"madeus/internal/flow"
	"madeus/internal/wal"
)

type stringList []string

func (s *stringList) String() string     { return fmt.Sprint(*s) }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var nodes, localNodes, tenants stringList
	var (
		listen    = flag.String("listen", "127.0.0.1:6000", "customer-facing listen address")
		provision = flag.Bool("provision", false, "create tenant databases on their nodes at startup")
		fsync     = flag.Duration("fsync", 2*time.Millisecond, "fsync latency for -localnode engines")
		noFlow    = flag.Bool("no-flow", false, "disable the backpressure/admission layer (flow knobs all zero)")
	)
	flag.Var(&nodes, "node", "remote DBMS node as name=addr (repeatable)")
	flag.Var(&localNodes, "localnode", "boot an in-process DBMS node with this name (repeatable)")
	flag.Var(&tenants, "tenant", "tenant as name@node (repeatable)")
	flag.Parse()

	// The daemon ships with the calibrated backpressure defaults (bounded
	// SSL, adaptive pacing, watchdog, admission control); individual knobs
	// are retunable at runtime with `madeusctl flow set`.
	fcfg := flow.DefaultConfig()
	if *noFlow {
		fcfg = flow.Config{}
	}
	mw, err := core.New(core.Options{ListenAddr: *listen, Flow: fcfg})
	if err != nil {
		fatal(err)
	}
	defer mw.Close()

	for _, spec := range nodes {
		name, addr, ok := strings.Cut(spec, "=")
		if !ok {
			fatal(fmt.Errorf("bad -node %q, want name=addr", spec))
		}
		mw.AddNode(&cluster.Remote{Name: name, Addr: addr})
	}
	for _, name := range localNodes {
		n, err := cluster.NewNode(name, cluster.NodeOptions{
			Engine: engine.Options{
				WAL:         wal.Options{SyncDelay: *fsync, Mode: wal.GroupCommit},
				LockTimeout: time.Second,
			},
		})
		if err != nil {
			fatal(err)
		}
		defer n.Close()
		mw.AddNode(n)
		fmt.Printf("madeusd: local node %s at %s\n", name, n.Addr())
	}

	for _, spec := range tenants {
		tenant, node, ok := strings.Cut(spec, "@")
		if !ok {
			fatal(fmt.Errorf("bad -tenant %q, want name@node", spec))
		}
		if *provision {
			err = mw.ProvisionTenant(tenant, node)
		} else {
			err = mw.AddTenant(tenant, node)
		}
		if err != nil {
			fatal(err)
		}
	}

	fmt.Printf("madeusd listening on %s (tenants: %v)\n", mw.Addr(), mw.Tenants())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("madeusd: shutting down")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "madeusd:", err)
	os.Exit(1)
}
