package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"madeus/internal/cluster"
	"madeus/internal/engine"
	"madeus/internal/flow"
	"madeus/internal/mvcc"
	"madeus/internal/obs"
	"madeus/internal/sqlmini"
	"madeus/internal/storage"
	"madeus/internal/tpcw"
	"madeus/internal/wal"
	"madeus/internal/wire"
)

// perLayer is what the traced run reports, one layer at a time. The numbers
// come from outside each module: spans around the clients' calls, the
// migration reports, the modules' own counters read at the phase boundaries,
// and isolation probes that replay the workload's statement stream against
// one layer's public functions. A layer's self time is its probe minus the
// probe beneath it. README.md maps each to the end-to-end metric it should
// move. The client layer comes first: the client-observed metrics that are
// not gated.
var perLayer = append(clientLayer, []metricSpec{
	{"tpcw.gen_us_per_int", "us", "lower", 0, "interaction span minus its statement spans: the EB's generation plus this harness"},

	{"core.proxy_ro_stmt_us", "us", "lower", 0, "mean point-read statement through mw.Addr()"},
	{"core.proxy_rw_stmt_us", "us", "lower", 0, "mean write statement through mw.Addr()"},
	{"core.proxy_commit_us", "us", "lower", 0, "mean COMMIT of an update transaction through mw.Addr()"},
	{"core.proxy_self_us_per_stmt", "us", "lower", 0, "mean statement through mw.Addr() minus the same directly at node.Addr()"},
	{"core.proxy_overhead_pct", "%", "lower", 0, "core.proxy_self_us_per_stmt as a share of the direct statement"},
	{"core.capture_commit_us", "us", "lower", 0, "mean COMMIT span of update interactions inside Migrate calls"},
	{"core.capture_overhead_pct", "%", "lower", 0, "that COMMIT against the steady phase's"},

	{"core.step1_drain_ms", "ms", "lower", 0, "median Report.DrainTime"},
	{"core.step1_snapshot_s", "s", "lower", 0, "median Report.SnapshotTime"},
	{"core.step2_restore_s", "s", "lower", 0, "median Report.RestoreTime"},
	{"core.step3_propagate_s", "s", "lower", 0, "median Report.PropagateTime"},
	{"core.step4_switch_ms", "ms", "lower", 0, "median Report.SwitchTime"},
	{"core.suspend_ms", "ms", "lower", 0, "median Report.SuspensionWindow"},
	{"core.suspend_max_ms", "ms", "lower", 0, "largest Report.SuspensionWindow"},
	{"core.syncsets_per_mig", "count", "lower", 0, "median syncsets applied on the slave"},
	{"core.ops_per_syncset", "count", "lower", 0, "operations sent to the slave per syncset"},
	{"core.commit_group_mean", "count", "higher", 0, "mean commit group released to the slave (CON-COM)"},
	{"core.commit_group_max", "count", "higher", 0, "largest commit group"},
	{"core.chunks_per_mig", "count", "lower", 0, "median snapshot chunks streamed"},
	{"core.peak_transfer_kb", "KB", "lower", 0, "largest resident transfer memory of a snapshot stream"},
	{"core.ssl_peak_depth", "count", "lower", 0, "deepest syncset list seen by the 50 ms monitor"},
	{"core.debt_peak", "count", "lower", 0, "largest Step-3 debt seen by the monitor"},

	{"flow.pace_delay_max_ms", "ms", "lower", 0, "largest source pacing delay seen by the monitor"},
	{"flow.sheds", "count", "lower", 0, "sessions shed by admission control"},
	{"flow.ssl_peak_kb", "KB", "lower", 0, "largest accounted syncset-list footprint seen by the monitor"},

	{"wire.direct_ro_stmt_us", "us", "lower", 0, "mean point-read statement at node.Addr()"},
	{"wire.direct_rw_stmt_us", "us", "lower", 0, "mean write statement at node.Addr()"},
	{"wire.self_us_per_stmt", "us", "lower", 0, "mean statement at node.Addr() minus the same in an engine session"},
	{"wire.bytes_per_int", "B", "lower", 0, "wire.bytes.in+out over the steady phase / S (both hops)"},
	{"wire.stream_mb_per_s", "MB/s", "higher", 0, "DUMP STREAM of the tenant over the wire"},

	{"engine.ro_stmt_us", "us", "lower", 0, "mean point-read statement in an engine session"},
	{"engine.rw_stmt_us", "us", "lower", 0, "mean write statement in an engine session"},
	{"engine.scan_stmt_us", "us", "lower", 0, "mean Search/BestSellers statement in an engine session"},
	{"engine.commit_us", "us", "lower", 0, "mean COMMIT of an update transaction in an engine session"},
	{"engine.dump_krows_per_s", "krow/s", "higher", 0, "Session.DumpStream of the tenant"},
	{"engine.restore_krows_per_s", "krow/s", "higher", 0, "Session.Restore of that dump into an empty database"},
	{"engine.conflict_pct", "%", "lower", 0, "first-updater-wins aborts per transaction outcome over the steady phase"},
	{"engine.recover_s", "s", "lower", 0, "engine.Open replaying a crashed node's WAL of the dump's first statements"},

	{"sqlmini.parse_us_per_stmt", "us", "lower", 0, "sqlmini.Parse over the statement stream"},
	{"sqlmini.classify_us_per_stmt", "us", "lower", 0, "sqlmini.ClassifyQuery over the statement stream"},
	{"sqlmini.cache_hit_pct", "%", "higher", 0, "the tenant's parse-cache hits over the steady phase"},

	{"mvcc.get_ns", "ns", "lower", 0, "Table.Get on an item-shaped table of the workload's size"},
	{"mvcc.scan_us_per_krow", "us", "lower", 0, "Table.Scan per thousand rows"},
	{"mvcc.update_commit_us", "us", "lower", 0, "Begin, Get, Update, Commit"},
	{"mvcc.begin_commit_ns", "ns", "lower", 0, "Begin and Commit of a read-only transaction"},

	{"wal.commit_us", "us", "lower", 0, "AppendBatch of three records and Commit on a stand-alone in-memory log"},
	{"wal.durable_commit_us", "us", "lower", 0, "the same on a log with a directory"},
	{"wal.records_per_commit", "count", "lower", 0, "node0's WAL records per commit over the steady phase"},
	{"wal.fsyncs_per_commit", "count", "lower", 0, "node0's WAL fsyncs per commit over the steady phase"},
	{"wal.bytes_per_commit", "B", "lower", 0, "bytes made durable per commit by the log with a directory"},
	{"wal.max_batch", "count", "higher", 0, "most commits one fsync covered on node0"},

	{"proc.cpu_us_per_int", "us", "lower", 0, "process CPU time over the steady phase / S"},
	{"proc.mallocs_per_int", "count", "lower", 0, "MemStats.Mallocs over the steady phase / S"},
	{"proc.rss_peak_mb", "MB", "lower", 0, "VmHWM when the probes end"},
	{"proc.heap_live_mb", "MB", "lower", 0, "MemStats.HeapAlloc at the end of the steady phase"},
	{"proc.gc_cycles_per_s", "1/s", "lower", 0, "GC cycles per second of steady phase"},
	{"trace.overhead_pct", "%", "lower", 0, "wall time per traced interaction against per untraced one, alternating stretches"},
}...)

// monitorPeaks are the high-water marks of Tenant.Monitor over a run.
type monitorPeaks struct {
	sslDepth, debt int
	sslBytes       int64
	paceDelay      time.Duration
}

// watchTenant samples the tenant's monitoring row every 50 ms until the
// returned function is called.
func watchTenant(b *bed, p *monitorPeaks) (stop func()) {
	tn, _ := b.mw.Tenant(tenant)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			m := tn.Monitor()
			p.sslDepth = max(p.sslDepth, m.SSLDepth)
			p.debt = max(p.debt, m.Debt)
			p.sslBytes = max(p.sslBytes, m.SSLBytes)
			p.paceDelay = max(p.paceDelay, m.PaceDelay)
		}
	}()
	return func() { close(done); wg.Wait() }
}

// layerCounters extends a phase mark with the modules' own counters. The
// steady phase runs wholly on node0, before the first migration.
func layerCounters(b *bed) func(*mark) {
	return func(m *mark) {
		m.counter = map[string]int64{}
		for _, mt := range obs.Default.Snapshot() {
			if mt.Kind == obs.KindCounter {
				m.counter[mt.Name] = mt.Value
			}
		}
		ws := b.nodes[0].Engine.WALStats()
		m.counter["node0.wal.fsyncs"] = int64(ws.Fsyncs)
		m.counter["node0.wal.commits"] = int64(ws.Commits)
		m.counter["node0.wal.records"] = int64(ws.Records)
		m.counter["node0.wal.max_batch"] = int64(ws.MaxBatch)
		if db, ok := b.nodes[0].Engine.Database(tenant); ok {
			ps := db.ParseCacheStats()
			m.counter["parse.hits"], m.counter["parse.misses"] = int64(ps.Hits), int64(ps.Misses)
		}
	}
}

// stmtCost accumulates statement times by class.
type stmtCost struct {
	ns [nClasses]int64
	n  [nClasses]int
}

func (c *stmtCost) mean(class int) float64 {
	return perOr(float64(c.ns[class])/1e3, float64(c.n[class]))
}

func (c *stmtCost) meanAll() float64 {
	var ns int64
	var n int
	for i := range c.ns {
		ns += c.ns[i]
		n += c.n[i]
	}
	return perOr(float64(ns)/1e3, float64(n))
}

// replay executes recorded interactions against x, timing each statement.
func replay(x tpcw.Execer, stream [][]string, cost *stmtCost) error {
	for _, stmts := range stream {
		wrote := false
		for _, sql := range stmts {
			cls := classOf(sql, wrote)
			wrote = wrote || cls == clsRW
			t0 := time.Now()
			if _, err := x.Exec(sql); err != nil {
				return fmt.Errorf("%s: %w", sql, err)
			}
			cost.ns[cls] += int64(time.Since(t0))
			cost.n[cls]++
		}
	}
	return nil
}

// probe measures the layers one at a time on the cluster the run left behind
// (clients stopped, gate passed), and joins the result with what the spans,
// the reports and the counters say about the run itself.
func probe(b *bed, o *outcome, dir string) (map[string]float64, error) {
	v := map[string]float64{}
	for name, val := range summarize(o).values {
		v["client."+name] = val
	}
	fromRun(o, v)

	tn, _ := b.mw.Tenant(tenant)
	master, _ := tn.Node()
	var node *cluster.Node
	for _, n := range b.nodes {
		if n.Name == master.BackendName() {
			node = n
		}
	}

	// A fresh EB id keeps the probe's order and cart keys clear of the
	// clients'; every path gets its own stretches of the one stream, since an
	// order can be inserted once.
	const paths, rounds = 3, 4
	chunk := max(o.sz.S/8/rounds, 10)
	stream := record(o.wl, o.seed*1000+9, 9, paths*rounds*chunk)
	if err := probePaths(b, node, stream, chunk, v); err != nil {
		return nil, err
	}
	probeSQL(stream, v)
	if err := probeMVCC(o.wl.Scale.Items, v); err != nil {
		return nil, fmt.Errorf("mvcc: %w", err)
	}
	if err := probeWAL(o.wl.SyncDelay, filepath.Join(dir, "probe-wal"), v); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := probeSnapshot(node, filepath.Join(dir, "probe-recover"), v); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	v["flow.sheds"] = float64(flow.Sheds())
	v["proc.rss_peak_mb"] = rssPeakMB()
	return v, nil
}

// probePaths replays the stream through the middleware, directly at the
// node, and in an engine session, in alternating stretches.
func probePaths(b *bed, node *cluster.Node, stream [][]string, chunk int, v map[string]float64) error {
	viaMW, err := wire.Dial(b.mw.Addr(), tenant)
	if err != nil {
		return err
	}
	defer viaMW.Close()
	direct, err := wire.Dial(node.Addr(), tenant)
	if err != nil {
		return err
	}
	defer direct.Close()
	sess, err := node.Engine.NewSession(tenant)
	if err != nil {
		return err
	}
	defer sess.Close()

	execers := []tpcw.Execer{viaMW, direct, sess}
	costs := make([]stmtCost, len(execers))
	for i := 0; len(stream) >= chunk; i++ {
		p := i % len(execers)
		if err := replay(execers[p], stream[:chunk], &costs[p]); err != nil {
			return fmt.Errorf("path %d: %w", p, err)
		}
		stream = stream[chunk:]
	}
	mw, dr, en := &costs[0], &costs[1], &costs[2]
	v["core.proxy_ro_stmt_us"] = mw.mean(clsRO)
	v["core.proxy_rw_stmt_us"] = mw.mean(clsRW)
	v["core.proxy_commit_us"] = mw.mean(clsCommitRW)
	v["core.proxy_self_us_per_stmt"] = mw.meanAll() - dr.meanAll()
	v["core.proxy_overhead_pct"] = 100 * perOr(mw.meanAll()-dr.meanAll(), dr.meanAll())
	v["wire.direct_ro_stmt_us"] = dr.mean(clsRO)
	v["wire.direct_rw_stmt_us"] = dr.mean(clsRW)
	v["wire.self_us_per_stmt"] = dr.meanAll() - en.meanAll()
	v["engine.ro_stmt_us"] = en.mean(clsRO)
	v["engine.rw_stmt_us"] = en.mean(clsRW)
	v["engine.scan_stmt_us"] = en.mean(clsScan)
	v["engine.commit_us"] = en.mean(clsCommitRW)
	return nil
}

// probeSQL times the parser and the middleware's classifier on the stream.
func probeSQL(stream [][]string, v map[string]float64) {
	var stmts []string
	for _, s := range stream {
		stmts = append(stmts, s...)
	}
	t0 := time.Now()
	for _, s := range stmts {
		_, _ = sqlmini.Parse(s) // the EB's statements parse; only the time matters
	}
	v["sqlmini.parse_us_per_stmt"] = micros(int64(time.Since(t0))) / float64(len(stmts))
	t0 = time.Now()
	for _, s := range stmts {
		_, _ = sqlmini.ClassifyQuery(s)
	}
	v["sqlmini.classify_us_per_stmt"] = micros(int64(time.Since(t0))) / float64(len(stmts))
}

// probeMVCC times the version store on a stand-alone item-shaped table (the
// engine does not hand out its tables).
func probeMVCC(items int, v map[string]float64) error {
	schema, err := storage.NewSchema("item", []storage.Column{
		{Name: "i_id", Type: sqlmini.KindInt, PrimaryKey: true},
		{Name: "i_title", Type: sqlmini.KindText},
		{Name: "i_cost", Type: sqlmini.KindFloat},
		{Name: "i_stock", Type: sqlmini.KindInt},
	})
	if err != nil {
		return err
	}
	mgr := mvcc.NewManager()
	tb := mvcc.NewTable(schema, mgr)
	row := func(i, stock int) storage.Row {
		return storage.Row{sqlmini.NewInt(int64(i)), sqlmini.NewText("title " + strconv.Itoa(i)), sqlmini.NewFloat(9.99), sqlmini.NewInt(int64(stock))}
	}
	load := mgr.Begin()
	for i := 0; i < items; i++ {
		if err := tb.Insert(load, row(i, 50)); err != nil {
			return err
		}
	}
	if _, err := load.Commit(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))

	const gets = 200000
	txn := mgr.Begin()
	t0 := time.Now()
	for i := 0; i < gets; i++ {
		tb.Get(txn, sqlmini.NewInt(int64(rng.Intn(items))))
	}
	v["mvcc.get_ns"] = float64(time.Since(t0)) / gets

	scans := max(1, 400000/items)
	t0 = time.Now()
	for i := 0; i < scans; i++ {
		if err := tb.Scan(txn, func(storage.Row) bool { return true }); err != nil {
			return err
		}
	}
	v["mvcc.scan_us_per_krow"] = micros(int64(time.Since(t0))) / (float64(scans*items) / 1000)
	if _, err := txn.Commit(); err != nil {
		return err
	}

	const updates = 20000
	t0 = time.Now()
	for i := 0; i < updates; i++ {
		id := rng.Intn(items)
		txn := mgr.Begin()
		tb.Get(txn, sqlmini.NewInt(int64(id)))
		if _, err := tb.Update(txn, sqlmini.NewInt(int64(id)), row(id, i)); err != nil {
			return err
		}
		if _, err := txn.Commit(); err != nil {
			return err
		}
	}
	v["mvcc.update_commit_us"] = micros(int64(time.Since(t0))) / updates

	const empties = 200000
	t0 = time.Now()
	for i := 0; i < empties; i++ {
		if _, err := mgr.Begin().Commit(); err != nil {
			return err
		}
	}
	v["mvcc.begin_commit_ns"] = float64(time.Since(t0)) / empties
	return nil
}

// probeWAL times a commit on a stand-alone log, in memory and with a
// directory, at the workload's commit delay.
func probeWAL(syncDelay time.Duration, dir string, v map[string]float64) error {
	commits := 20000
	if syncDelay > 0 {
		commits = 200
	}
	one := func(l *wal.Log, n int) (float64, error) {
		recs := make([]wal.Record, 3)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			for j := range recs {
				recs[j] = wal.Record{TxnID: uint64(i + 1), Kind: wal.RecUpdate, DB: tenant, Table: "item",
					Data: "UPDATE item SET i_stock = 49 WHERE i_id = 1234"}
			}
			recs[2].Kind = wal.RecCommit
			l.AppendBatch(recs)
			if err := l.Commit(); err != nil {
				return 0, err
			}
		}
		return micros(int64(time.Since(t0))) / float64(n), nil
	}

	mem, err := wal.Open(wal.Options{SyncDelay: syncDelay, Mode: wal.GroupCommit})
	if err != nil {
		return err
	}
	v["wal.commit_us"], err = one(mem, commits)
	mem.Close()
	if err != nil {
		return err
	}

	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := wal.Open(wal.Options{SyncDelay: syncDelay, Mode: wal.GroupCommit, Dir: dir})
	if err != nil {
		return err
	}
	const durable = 200
	before := counter("wal.durable_bytes")
	v["wal.durable_commit_us"], err = one(disk, durable)
	disk.Close()
	v["wal.bytes_per_commit"] = float64(counter("wal.durable_bytes")-before) / durable
	return err
}

// counter reads one process-wide obs counter.
func counter(name string) int64 {
	for _, mt := range obs.Default.Snapshot() {
		if mt.Name == name {
			return mt.Value
		}
	}
	return 0
}

// probeSnapshot times the pieces of Steps 1–2 on the tenant as the run left
// it — dump, stream, restore — and crash recovery of a node that had
// restored the dump's head.
func probeSnapshot(node *cluster.Node, dir string, v map[string]float64) error {
	sess, err := node.Engine.NewSession(tenant)
	if err != nil {
		return err
	}
	defer sess.Close()
	db, _ := node.Engine.Database(tenant)
	rows := 0
	for _, t := range db.Tables() {
		n, err := sess.RowCount(t)
		if err != nil {
			return err
		}
		rows += n
	}
	krows := float64(rows) / 1000

	var script []string
	t0 := time.Now()
	if _, err := sess.DumpStream(engine.DefaultDumpChunk, func(stmts []string) error {
		script = append(script, stmts...)
		return nil
	}); err != nil {
		return err
	}
	v["engine.dump_krows_per_s"] = krows / time.Since(t0).Seconds()

	c, err := wire.Dial(node.Addr(), tenant)
	if err != nil {
		return err
	}
	defer c.Close()
	bytes := 0
	t0 = time.Now()
	if _, err := c.ExecStream(fmt.Sprintf("DUMP STREAM %d", engine.DefaultDumpChunk), func(_ uint32, stmts []string) error {
		for _, s := range stmts {
			bytes += len(s)
		}
		return nil
	}); err != nil {
		return err
	}
	v["wire.stream_mb_per_s"] = float64(bytes) / 1e6 / time.Since(t0).Seconds()

	const scratchDB = "probe"
	if err := node.Engine.CreateDatabase(scratchDB); err != nil {
		return err
	}
	defer func() { _ = node.Engine.DropDatabase(scratchDB) }() // the node is closed right after
	into, err := node.Engine.NewSession(scratchDB)
	if err != nil {
		return err
	}
	defer into.Close()
	t0 = time.Now()
	if err := into.Restore(script); err != nil {
		return err
	}
	v["engine.restore_krows_per_s"] = krows / time.Since(t0).Seconds()

	// Recovery: a durable node restores the head of the dump and is killed;
	// the next Open replays its log. Fixed work, whatever the tenant's size.
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := engine.Options{DataDir: dir, WAL: wal.Options{Mode: wal.GroupCommit}}
	e, err := engine.Open(opts)
	if err != nil {
		return err
	}
	err = func() error {
		if err := e.CreateDatabase(scratchDB); err != nil {
			return err
		}
		s, err := e.NewSession(scratchDB)
		if err != nil {
			return err
		}
		defer s.Close()
		return s.Restore(script[:min(len(script), 150)])
	}()
	e.Crash()
	if err != nil {
		return err
	}
	t0 = time.Now()
	e, err = engine.Open(opts)
	if err != nil {
		return err
	}
	v["engine.recover_s"] = time.Since(t0).Seconds()
	e.Close()
	return nil
}

// rssPeakMB is the process's peak resident set, from /proc/self/status.
func rssPeakMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// fromRun fills in what the traced run itself shows: span self times, the
// migration reports, the monitor's peaks, and counter deltas over the steady
// phase.
func fromRun(o *outcome, v map[string]float64) {
	f, sz := o.f, o.sz

	// Spans: generation time, COMMIT inside and outside migrations, and the
	// cost of tracing itself.
	var gen, genN float64
	var commitIn, commitOut []float64
	var onTime, offTime int64
	var onN, offN int
	for _, c := range f.clients {
		onTime, offTime, onN, offN = onTime+c.onTime, offTime+c.offTime, onN+c.onN, offN+c.offN
		for i := range c.spans {
			s := &c.spans[i]
			if s.kind == 'i' {
				if sz.phaseOf(int(s.n)) == "steady" {
					gen += float64(s.end - s.start)
					genN++
				}
				continue
			}
			parent := &c.spans[s.parent]
			steady := sz.phaseOf(int(parent.n)) == "steady"
			if steady {
				gen -= float64(s.end - s.start)
			}
			if s.kind != 'C' || !s.update {
				continue
			}
			if steady {
				commitOut = append(commitOut, micros(s.end-s.start))
			}
			for _, m := range o.migs {
				if s.start >= m.start && s.end <= m.end {
					commitIn = append(commitIn, micros(s.end-s.start))
					break
				}
			}
		}
	}
	v["tpcw.gen_us_per_int"] = perOr(gen/1e3, genN)
	v["core.capture_commit_us"] = mean(commitIn)
	v["core.capture_overhead_pct"] = 100 * perOr(mean(commitIn)-mean(commitOut), mean(commitOut))
	on, off := perOr(float64(onTime), float64(onN)), perOr(float64(offTime), float64(offN))
	v["trace.overhead_pct"] = 100 * perOr(on-off, off)

	// Reports.
	col := func(get func(m migration) float64) []float64 {
		out := make([]float64, len(o.migs))
		for i, m := range o.migs {
			out[i] = get(m)
		}
		return out
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	v["core.step1_drain_ms"] = median(col(func(m migration) float64 { return ms(m.rep.DrainTime) }))
	v["core.step1_snapshot_s"] = median(col(func(m migration) float64 { return m.rep.SnapshotTime.Seconds() }))
	v["core.step2_restore_s"] = median(col(func(m migration) float64 { return m.rep.RestoreTime.Seconds() }))
	v["core.step3_propagate_s"] = median(col(func(m migration) float64 { return m.rep.PropagateTime.Seconds() }))
	v["core.step4_switch_ms"] = median(col(func(m migration) float64 { return ms(m.rep.SwitchTime) }))
	suspend := col(func(m migration) float64 { return ms(m.rep.SuspensionWindow) })
	v["core.suspend_max_ms"] = maxOf(suspend)
	v["core.suspend_ms"] = median(suspend)
	v["core.syncsets_per_mig"] = median(col(func(m migration) float64 { return float64(m.rep.Propagation.Syncsets) }))
	v["core.chunks_per_mig"] = median(col(func(m migration) float64 { return float64(m.rep.Chunks) }))
	v["core.peak_transfer_kb"] = maxOf(col(func(m migration) float64 { return float64(m.rep.PeakTransferBytes) / 1024 }))
	var ops, syncsets float64
	var groups []float64
	for _, m := range o.migs {
		ops += float64(m.rep.Propagation.Ops)
		syncsets += float64(m.rep.Propagation.Syncsets)
		for _, g := range m.rep.Propagation.CommitGroups {
			groups = append(groups, float64(g))
		}
	}
	v["core.ops_per_syncset"] = perOr(ops, syncsets)
	v["core.commit_group_mean"] = mean(groups)
	v["core.commit_group_max"] = maxOf(groups)

	// The 50 ms monitor.
	v["core.ssl_peak_depth"] = float64(o.mon.sslDepth)
	v["core.debt_peak"] = float64(o.mon.debt)
	v["flow.pace_delay_max_ms"] = ms(o.mon.paceDelay)
	v["flow.ssl_peak_kb"] = float64(o.mon.sslBytes) / 1024

	// Counters over the steady phase.
	a, z := &f.steadyStart, &f.steadyEnd
	d := func(name string) float64 { return float64(z.counter[name] - a.counter[name]) }
	s := float64(sz.S)
	v["wire.bytes_per_int"] = (d("wire.bytes.in") + d("wire.bytes.out")) / s
	v["engine.conflict_pct"] = 100 * perOr(d("engine.conflicts"), d("engine.commits")+d("engine.aborts"))
	v["sqlmini.cache_hit_pct"] = 100 * perOr(d("parse.hits"), d("parse.hits")+d("parse.misses"))
	v["wal.records_per_commit"] = perOr(d("node0.wal.records"), d("node0.wal.commits"))
	v["wal.fsyncs_per_commit"] = perOr(d("node0.wal.fsyncs"), d("node0.wal.commits"))
	v["wal.max_batch"] = float64(z.counter["node0.wal.max_batch"])
	v["proc.cpu_us_per_int"] = micros(int64(z.cpu-a.cpu)) / s
	v["proc.mallocs_per_int"] = float64(z.mem.Mallocs-a.mem.Mallocs) / s
	v["proc.heap_live_mb"] = float64(z.mem.HeapAlloc) / (1 << 20)
	v["proc.gc_cycles_per_s"] = float64(z.mem.NumGC-a.mem.NumGC) / (float64(z.at-a.at) / 1e9)
}
