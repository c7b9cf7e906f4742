//go:build race

package reconstruct

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates on synchronization operations, so allocation
// assertions are skipped under -race.
const raceEnabled = true
