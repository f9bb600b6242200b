//go:build race

package sim

// raceEnabled shrinks the quiescence grid to one field per cell: the race
// detector slows the event loop about tenfold.
const raceEnabled = true
