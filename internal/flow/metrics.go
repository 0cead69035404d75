package flow

import "madeus/internal/obs"

// Backpressure metrics. Registered once at init like every other obs user;
// each update is one atomic.
var (
	// obsSSLBytes tracks the accounted memory footprint of the migrating
	// tenant's syncset list (sum over tenants currently capturing).
	obsSSLBytes = obs.NewGauge("flow.ssl.bytes",
		"accounted bytes retained in syncset lists")
	// obsSSLOps tracks captured operations retained in syncset lists.
	obsSSLOps = obs.NewGauge("flow.ssl.ops",
		"captured operations retained in syncset lists")
	// obsPaceDelay records each nonzero controller delay decision.
	obsPaceDelay = obs.NewHistogram("flow.pace.delay",
		"per-commit pace delay injected on the migrating tenant",
		obs.DurationBuckets())
	// obsPaceGauge is the currently applied per-commit delay in
	// nanoseconds (0 when pacing is idle).
	obsPaceGauge = obs.NewGauge("flow.pace.delay.now",
		"current per-commit pace delay (ns)")
	// obsAdmitQueue is the number of sessions parked in admission queues.
	obsAdmitQueue = obs.NewGauge("flow.admit.queue",
		"sessions waiting for an admission slot")
	// obsSessions is the number of admitted in-flight sessions.
	obsSessions = obs.NewGauge("flow.sessions",
		"admitted in-flight customer sessions")
	// obsSheds counts sessions rejected by admission control.
	obsSheds = obs.NewCounter("flow.sheds",
		"sessions shed by admission control")
	// obsStalls counts watchdog stall detections.
	obsStalls = obs.NewCounter("flow.stalls",
		"migrations aborted by the stall detector")
	// obsDeadlineAborts counts watchdog deadline expirations.
	obsDeadlineAborts = obs.NewCounter("flow.deadline_aborts",
		"migrations aborted by the migration deadline")
	// obsOverflows counts SSL cap breaches.
	obsOverflows = obs.NewCounter("flow.ssl.overflows",
		"migrations aborted by a syncset-list cap breach")
	// obsTransferBytes tracks the resident bytes of in-flight Step-1
	// snapshot chunks (dumped but not yet applied on every slave), summed
	// over concurrent migrations.
	obsTransferBytes = obs.NewGauge("flow.transfer.bytes",
		"resident snapshot-transfer bytes in flight")
)

// Counter accessors for tests and the admin FLOW listing. Counters are
// process-wide and monotonic; callers diff around an operation.

// Sheds returns the cumulative sessions shed by admission control.
func Sheds() uint64 { return obsSheds.Value() }

// Stalls returns the cumulative stall-detector aborts.
func Stalls() uint64 { return obsStalls.Value() }

// DeadlineAborts returns the cumulative deadline aborts.
func DeadlineAborts() uint64 { return obsDeadlineAborts.Value() }

// Overflows returns the cumulative SSL cap breaches.
func Overflows() uint64 { return obsOverflows.Value() }

// SSLBytes returns the currently accounted syncset-list bytes.
func SSLBytes() int64 { return obsSSLBytes.Value() }

// TransferBytes returns the currently resident snapshot-transfer bytes.
func TransferBytes() int64 { return obsTransferBytes.Value() }

// AdmitQueueDepth returns the sessions currently parked in admission
// queues.
func AdmitQueueDepth() int64 { return obsAdmitQueue.Value() }

// Sessions returns the admitted in-flight sessions.
func Sessions() int64 { return obsSessions.Value() }

// AccountSSL moves the process-wide SSL gauges by the given deltas. The
// core tenant calls it under its own lock whenever syncsets are linked,
// released, or discarded, so the gauges cannot go stale on rollback.
func AccountSSL(deltaOps int, deltaBytes int64) {
	if deltaOps != 0 {
		obsSSLOps.Add(int64(deltaOps))
	}
	if deltaBytes != 0 {
		obsSSLBytes.Add(deltaBytes)
	}
}
