//go:build !race

package batch

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation invalidates timing-based assertions.
const raceEnabled = false
