//go:build race

package server

// raceEnabled reports whether the race detector instruments this build.
// Tests that count what a daemon retains over hundreds of jobs skip under
// it: the count does not change, and the instrumented run is slow.
const raceEnabled = true
