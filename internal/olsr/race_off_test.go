//go:build !race

package olsr

const raceEnabled = false
