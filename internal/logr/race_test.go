//go:build race

package logr

// raceEnabled reports that the race detector is on. It makes sync.Pool
// drop Puts at random, so allocation counts do not repeat.
const raceEnabled = true
