//go:build race

package olsr

// raceEnabled tells the allocation ceiling that the race detector is on: a
// recompute then allocates three or four times more than its results.
const raceEnabled = true
