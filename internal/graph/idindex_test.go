package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// An IDIndex numbers any mix of ids — negative, inside its window, past it,
// repeated, in any order — in ascending order, and a reused one forgets the
// previous round, whatever its window was.
func TestIDIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var ix IDIndex
	for round := 0; round < 200; round++ {
		window := rng.Intn(150)
		var noted []NodeID
		for i := rng.Intn(60); i >= 0; i-- {
			noted = append(noted, NodeID(rng.Intn(300)-100))
			if rng.Intn(4) == 0 {
				noted = append(noted, noted[rng.Intn(len(noted))]) // a repeat
			}
		}
		ix.Reset(window)
		for _, id := range noted {
			ix.Note(id)
		}
		got := ix.Seal()
		want := slices.Compact(slices.Sorted(slices.Values(noted)))
		if !slices.Equal(got, want) {
			t.Fatalf("round %d window %d: sealed %v, want %v", round, window, got, want)
		}
		for i, id := range want {
			if x := ix.At(id); x != int32(i) {
				t.Fatalf("round %d window %d: At(%d) = %d, want %d", round, window, id, x, i)
			}
		}
	}
}
