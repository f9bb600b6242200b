//go:build race

package node

// raceEnabled tells the allocation ceilings that the race detector is on:
// sync.Pool then discards a quarter of what is put back, by design.
const raceEnabled = true
