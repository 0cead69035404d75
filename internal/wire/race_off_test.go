//go:build !race

package wire

// raceEnabled reports whether this test binary was built with the race
// detector.
const raceEnabled = false
