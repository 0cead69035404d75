package core

import "madeus/internal/obs"

// Process-wide middleware observability. Counters and histograms are the
// hot-path side (worker relays, propagation players); the migration
// lifecycle itself is traced as events through obs.Trace (see manager.go).
var (
	// Worker / normal processing (Algorithms 1-2).
	obsWorkerOps  = obs.NewCounter("core.worker.ops", "customer operations relayed through workers")
	obsWorkerTxns = obs.NewCounter("core.worker.txns", "customer transactions begun")
	obsGateWait   = obs.NewHistogram("core.gate.wait", "time new transactions spent blocked at a migration gate", obs.DurationBuckets())
	obsMLCAdvance = obs.NewCounter("core.mlc.advance", "MLC increments (update-transaction commits)")

	// Syncset capture (Step 1-3 source side).
	obsSSBLinked = obs.NewCounter("core.ssl.linked", "syncsets linked to an SSL")

	// Pipelined Step-1 snapshot transfer (dump → transfer → restore).
	obsChunks       = obs.NewCounter("core.step1.chunks", "snapshot chunks streamed from sources")
	obsChunkBytes   = obs.NewHistogram("core.step1.chunk.bytes", "accounted bytes per snapshot chunk", obs.SizeBuckets())
	obsChunkStall   = obs.NewHistogram("core.step1.stall", "dump-stage stall per chunk (transfer budget + slave queues)", obs.DurationBuckets())
	obsApplyLatency = obs.NewHistogram("core.step1.apply", "restore apply latency per chunk", obs.DurationBuckets())

	// Propagation (Step 3 destination side).
	obsPlayersActive   = obs.NewGauge("core.players.active", "propagation players in flight")
	obsGroupSize       = obs.NewHistogram("core.commit_group.size", "commit group sizes released to slaves", obs.SizeBuckets())
	obsSyncsetsApplied = obs.NewCounter("core.propagation.syncsets", "syncsets applied on slaves")
	obsPropOps         = obs.NewCounter("core.propagation.ops", "operations replayed on slaves (incl. BEGIN/COMMIT)")

	// Migration outcomes.
	obsMigStarted   = obs.NewCounter("core.migrations.started", "migrations begun")
	obsMigCompleted = obs.NewCounter("core.migrations.completed", "migrations switched over")
	obsMigFailed    = obs.NewCounter("core.migrations.failed", "migrations aborted")

	// Fault tolerance (the rollback path and its retries).
	obsMigRollbacks = obs.NewCounter("core.migrations.rollbacks", "failed migrations rolled back to normal service on the source")
	obsMigRetries   = obs.NewCounter("core.migrations.retries", "destination dials retried during migration")
)
