//go:build race

package apps

// raceEnabled reports a -race build: the race detector allocates on its
// own, so allocation-count tests skip under it.
const raceEnabled = true
