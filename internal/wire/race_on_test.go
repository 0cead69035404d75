//go:build race

package wire

// raceEnabled reports that this test binary was built with the race
// detector, under which sync.Pool drops a share of its puts at random, so
// the pooled frame buffers allocate and allocation counts mean nothing.
const raceEnabled = true
