//go:build !race

package assoc

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
