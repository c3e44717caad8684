//go:build !race

package mrskyline_test

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
