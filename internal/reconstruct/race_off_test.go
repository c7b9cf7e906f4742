//go:build !race

package reconstruct

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
