//go:build !race

package frame

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
