//go:build race

package rt

// raceEnabled reports that the race detector is compiled in.
const raceEnabled = true
