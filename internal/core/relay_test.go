package core

import (
	"context"
	"errors"
	"testing"

	"madeus/internal/engine"
	"madeus/internal/metrics"
	"madeus/internal/tpcw"
	"madeus/internal/wire"
)

// twin runs every statement twice, through the middleware and directly
// against a node holding an identical copy of the tenant, and fails the
// test unless both answers are byte for byte the same: the same reply
// payload, or the same server error.
type twin struct {
	t          *testing.T
	mw, direct *wire.Client
	tags       map[string]int // COMMIT/ROLLBACK answers seen, by tag

	commitsLeft int // the EB stream stops after this many COMMITs
	stop        context.CancelFunc
}

func (w *twin) Exec(sql string) (*engine.Result, error) {
	w.t.Helper()
	reply, err := w.mw.ExecReply(sql)
	reply = append([]byte(nil), reply...) // borrowed until the next call on w.mw
	directReply, directErr := w.direct.ExecReply(sql)
	var se, directSE *wire.ServerError
	switch {
	case err != nil || directErr != nil:
		if !errors.As(err, &se) || !errors.As(directErr, &directSE) || se.Msg != directSE.Msg {
			w.t.Fatalf("%s:\n via middleware: %v\n direct:         %v", sql, err, directErr)
		}
		return nil, err
	case string(reply) != string(directReply):
		w.t.Fatalf("%s: reply via middleware %x, direct %x", sql, reply, directReply)
	}
	res, err := wire.DecodeResult(reply)
	if err != nil {
		w.t.Fatalf("%s: %v", sql, err)
	}
	if sql == "COMMIT" {
		w.tags[res.Tag]++
		if w.commitsLeft--; w.commitsLeft == 0 {
			w.stop()
		}
	}
	return res, nil
}

// TestRelayMatchesDirect is the end-to-end check that relaying reply
// frames verbatim is observationally identical to a customer talking to the
// node itself. Seeded TPC-W EB streams (browsing and ordering mixes) and a
// scripted first-updater-wins schedule run through the middleware and,
// statement by statement, directly against a second node loaded the same
// way: every result, error and COMMIT/ROLLBACK tag must be identical. The
// schedule's aborts answer COMMIT with ROLLBACK on both of the worker's
// commit paths (an update transaction and a read-only one), which is where
// the worker reads the reply's tag — and the MLC must advance for the
// committed transaction alone.
func TestRelayMatchesDirect(t *testing.T) {
	rig := newRig(t, 2, engine.Options{})
	const db = "shop"
	if err := rig.mw.ProvisionTenant(db, "node0"); err != nil {
		t.Fatal(err)
	}
	if err := rig.nodes[1].CreateDatabase(db); err != nil {
		t.Fatal(err)
	}
	tags := map[string]int{}
	open := func() *twin {
		mw := rig.connect(t, db)
		t.Cleanup(func() { mw.Close() })
		direct, err := wire.Dial(rig.nodes[1].Addr(), db)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { direct.Close() })
		return &twin{t: t, mw: mw, direct: direct, tags: tags}
	}

	eb := open()
	scale := tpcw.Scale{Items: 200, Customers: 100, Authors: 50}
	if err := tpcw.Load(eb, scale); err != nil {
		t.Fatal(err)
	}
	rec := metrics.NewRecorder()
	defer rec.Close()
	for i, mix := range []tpcw.Mix{tpcw.Browsing, tpcw.Ordering} {
		ctx, cancel := context.WithCancel(context.Background())
		eb.commitsLeft, eb.stop = 150, cancel
		b := &tpcw.EB{ID: i + 1, Mix: mix, Scale: scale, Seed: int64(7 + i)}
		err := b.Run(ctx, eb, rec)
		cancel()
		if err != nil {
			t.Fatalf("%s stream: %v", mix.Name, err)
		}
	}

	tn, _ := rig.mw.Tenant(db)
	mlc := tn.MLC()
	a, b, c := open(), open(), open()
	for _, step := range []struct {
		s       *twin
		sql     string
		wantErr bool
	}{
		{a, "BEGIN", false},
		{b, "BEGIN", false},
		{c, "BEGIN", false},
		{a, "SELECT i_stock FROM item WHERE i_id = 1", false},
		{b, "SELECT i_stock FROM item WHERE i_id = 1", false},
		{c, "SELECT i_stock FROM item WHERE i_id = 1", false},
		{b, "UPDATE item SET i_stock = i_stock + 1 WHERE i_id = 2", false},
		{a, "UPDATE item SET i_stock = i_stock - 1 WHERE i_id = 1", false},
		{a, "COMMIT", false},
		{b, "UPDATE item SET i_stock = i_stock - 1 WHERE i_id = 1", true}, // first updater (a) won
		{b, "COMMIT", false}, // ROLLBACK, on the update-commit path
		{c, "UPDATE item SET i_stock = i_stock - 1 WHERE i_id = 1", true},
		{c, "COMMIT", false}, // ROLLBACK, on the read-only path
	} {
		if _, err := step.s.Exec(step.sql); (err != nil) != step.wantErr {
			t.Fatalf("%s: error %v, want error %v", step.sql, err, step.wantErr)
		}
	}
	if got := tn.MLC() - mlc; got != 1 {
		t.Errorf("MLC advanced by %d over one committed and two rolled-back transactions, want 1", got)
	}
	if tags["COMMIT"] == 0 || tags["ROLLBACK"] != 2 {
		t.Errorf("COMMIT answers by tag: %v, want COMMITs and exactly the schedule's two ROLLBACKs", tags)
	}
	assertStateEqual(t, rig.nodes[0], rig.nodes[1], db)
}

// TestProxyRefusesRowStatements: a dump's row statement is for a restore
// alone. Sent by a client through the middleware it is refused, in
// autocommit and inside a transaction block: relayed, it would be a write
// that skips the critical region and the SSB, and Theorem 1 would not hold.
// So it reaches neither the master nor the capture, and the block it was
// sent in goes on as if it had not been.
func TestProxyRefusesRowStatements(t *testing.T) {
	rig := newRig(t, 1, engine.Options{})
	rig.provision(t, "a", 10)
	tn, _ := rig.mw.Tenant("a")
	tn.startCapture(false)
	defer tn.stopCapture()

	// A row statement for acct holding a new key, from a dump of a copy.
	src := engine.New(engine.Options{})
	defer src.Close()
	if err := src.CreateDatabase("src"); err != nil {
		t.Fatal(err)
	}
	ss, _ := src.NewSession("src")
	for _, q := range []string{"CREATE TABLE acct (id INT PRIMARY KEY, bal INT)", "INSERT INTO acct (id, bal) VALUES (100, 1)"} {
		if _, err := ss.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	script, err := ss.Dump()
	if err != nil {
		t.Fatal(err)
	}
	row := script[len(script)-1]
	if !engine.IsRowStatement(row) {
		t.Fatalf("the dump's last statement %q is not a row statement", row)
	}

	db, _ := rig.nodes[0].Engine.Database("a")
	c := rig.connect(t, "a")
	defer c.Close()
	refused := func() {
		t.Helper()
		commits := db.Stats().Commits
		tn.mu.Lock()
		depth := len(tn.ssl)
		tn.mu.Unlock()
		var se *wire.ServerError
		if _, err := c.Exec(row); !errors.As(err, &se) {
			t.Fatalf("row statement through the middleware: %v, want a server error", err)
		}
		tn.mu.Lock()
		defer tn.mu.Unlock()
		if got := db.Stats().Commits; got != commits || len(tn.ssl) != depth {
			t.Errorf("a refused row statement moved the master's commits %d -> %d and the SSL %d -> %d", commits, got, depth, len(tn.ssl))
		}
	}
	refused()
	mustExecAll(t, c, "BEGIN", "SELECT bal FROM acct WHERE id = 1")
	refused()
	mustExecAll(t, c, "UPDATE acct SET bal = bal + 1 WHERE id = 1", "COMMIT")

	tn.mu.Lock()
	ssl := append([]*SSB{}, tn.ssl...)
	tn.mu.Unlock()
	if len(ssl) != 1 || len(ssl[0].Entries) != 2 {
		t.Fatalf("SSL %+v, want the one SSB of the block: its SELECT and UPDATE", ssl)
	}
	res, err := c.Exec("SELECT COUNT(*) FROM acct")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].Int; n != 10 {
		t.Errorf("acct holds %d rows, want the 10 provisioned", n)
	}
}
