//go:build !race

package tsdb

// raceEnabled reports whether this test binary was built with the race
// detector, whose sync.Pool drops items at random and whose
// instrumentation slows the randomized differential tests tenfold.
const raceEnabled = false
