//go:build race

package cluster

// raceEnabled reports whether the race detector instruments this build.
// Allocation tests skip under it: instrumentation allocates, and sync.Pool
// drops items at random.
const raceEnabled = true
