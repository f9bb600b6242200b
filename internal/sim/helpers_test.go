package sim

import "math/rand"

// newTestRand provides seeded randomness for test scaffolding.
func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
