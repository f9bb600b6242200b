package graph

import (
	"math/rand"
	"slices"

	"qolsr/internal/metric"
)

// randomGraph builds a G(n,p) random graph with integer weights in [1,12] on
// both "bandwidth" and "delay" channels. Integer weights make float equality
// in first-hop tie detection exact, so the fast paths and oracles can be
// compared bit-for-bit.
func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	for a := int32(0); int(a) < n; a++ {
		for b := a + 1; int(b) < n; b++ {
			if rng.Float64() < p {
				e := g.MustAddEdge(a, b)
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

// randomConnectedGraph retries randomGraph until connected.
func randomConnectedGraph(rng *rand.Rand, n int, p float64) *Graph {
	for {
		g := randomGraph(rng, n, p)
		if !slices.Contains(Reachable(g, 0), false) {
			return g
		}
	}
}

func metricWeights(g *Graph, m metric.Metric) []float64 {
	w, err := g.Weights(m.Name())
	if err != nil {
		panic(err)
	}
	return w
}

// lineGraph builds a path v0-v1-...-v(n-1) with the given weights on channel
// ch.
func lineGraph(n int, ch string, ws []float64) *Graph {
	g := New(n)
	for i := 0; i < n-1; i++ {
		e := g.MustAddEdge(int32(i), int32(i+1))
		if err := g.SetWeight(ch, e, ws[i]); err != nil {
			panic(err)
		}
	}
	return g
}

// MustAddEdge is AddEdge for statically known-good fixtures; it panics on
// an error.
func (g *Graph) MustAddEdge(a, b int32) int {
	e, err := g.AddEdge(a, b)
	if err != nil {
		panic(err)
	}
	return e
}
