package core

import (
	"runtime/metrics"
	"time"
)

// gcSample is a reading of the process-wide GC counters a Report carries
// the deltas of (see Report.GCCPU).
type gcSample struct {
	cpu    float64 // seconds
	cycles uint64
}

// readGC reads the GC counters. A metric this runtime does not have reads
// as zero.
func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var g gcSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.cpu = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		g.cycles = s[1].Value.Uint64()
	}
	return g
}

// since returns the GC CPU time and cycles from g to now.
func (g gcSample) since() (time.Duration, uint64) {
	now := readGC()
	return time.Duration((now.cpu - g.cpu) * float64(time.Second)), now.cycles - g.cycles
}
