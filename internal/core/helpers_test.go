package core

import (
	"math/rand"

	"qolsr/internal/graph"
)

// randomWeightedGraph builds a G(n,p) graph with integer weights in [1,12]
// on the "bandwidth" and "delay" channels (integer so optimal-value ties are
// exact in float64).
func randomWeightedGraph(rng *rand.Rand, n int, p float64) *graph.Graph {
	g := graph.New(n)
	for a := int32(0); int(a) < n; a++ {
		for b := a + 1; int(b) < n; b++ {
			if rng.Float64() < p {
				e := mustAddEdge(g, a, b)
				if err := g.SetWeight("bandwidth", e, float64(1+rng.Intn(12))); err != nil {
					panic(err)
				}
				if err := g.SetWeight("delay", e, float64(1+rng.Intn(12))); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

// mustAddEdge adds the edge a–b to a statically known-good fixture,
// panicking on an error.
func mustAddEdge(g *graph.Graph, a, b int32) int {
	e, err := g.AddEdge(a, b)
	if err != nil {
		panic(err)
	}
	return e
}
