package sim

import "math/rand"

// DrawPairs picks count distinct ordered (src, dst) node-index pairs with
// src != dst, uniform without replacement, clamped to the n·(n-1) distinct
// pairs. It is the scenario engine's flow-endpoint sampler, so probes and
// flow mixes — and the live grids built on scenarios — draw one way. The
// draw sequence is a pure function of (n, count, seed); the scenario
// goldens lock it.
func DrawPairs(n, count int, seed int64) [][2]int32 {
	if n < 2 {
		return nil
	}
	count = min(count, n*(n-1))
	r := rand.New(rand.NewSource(seed))
	seen := make(map[[2]int32]bool, count)
	out := make([][2]int32, 0, count)
	for len(out) < count {
		src := int32(r.Intn(n))
		dst := int32(r.Intn(n - 1))
		if dst >= src {
			dst++
		}
		pair := [2]int32{src, dst}
		if seen[pair] {
			continue
		}
		seen[pair] = true
		out = append(out, pair)
	}
	return out
}
