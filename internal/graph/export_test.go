package graph

import (
	"math/rand"
	"slices"
)

// Exported to tests only: the external graph_test package can import core,
// which this package cannot.

// GenerateConcaveView draws one graph and center for the concave first-hop
// properties. "bandwidth" weights sit on 1, 2, 3, 4 or 10 integer levels —
// sim.PairWeight's law is ten levels, so equal-weight groups are the common
// case, not the corner. The graph is G(n,p) with n in 5–45 and p in
// 0.05–0.45, so views with G_u − u disconnected, and nodes outside the view,
// come by themselves at the sparse end; one draw in four makes a node a leaf
// neighbor of the center (no link but the direct one), one in four puts every
// direct link on one weight, and one in twenty-five is a wide star whose
// |N1| > 64 spans several bitset blocks.
func GenerateConcaveView(rng *rand.Rand) (g *Graph, center int32) {
	levels := []int{1, 2, 3, 4, 10}[rng.Intn(5)]
	if rng.Intn(25) == 0 {
		return wideStar(65+rng.Intn(40), levels, rng), 0
	}
	n := 5 + rng.Intn(41)
	p := 0.05 + 0.4*rng.Float64()
	center = int32(rng.Intn(n))
	leaf, flat := int32(-1), float64(0)
	switch rng.Intn(4) {
	case 0:
		leaf = (center + 1 + int32(rng.Intn(n-1))) % int32(n)
	case 1:
		flat = float64(1 + rng.Intn(levels))
	}
	g = New(n)
	for a := int32(0); int(a) < n; a++ {
		for b := a + 1; int(b) < n; b++ {
			direct := a == center || b == center
			if a == leaf || b == leaf {
				if !direct {
					continue
				}
			} else if rng.Float64() >= p {
				continue
			}
			w := float64(1 + rng.Intn(levels))
			if direct && flat > 0 {
				w = flat
			}
			if err := g.SetWeight("bandwidth", g.MustAddEdge(a, b), w); err != nil {
				panic(err)
			}
		}
	}
	return g, center
}

// ReplayInScratch lays g out again in s the way a protocol node builds its
// view — every node numbered by an IDIndex over g's index range, every row
// walked, each link offered from both ends — and returns the view of center
// with its weights. Indices equal g's, whose ids New makes ascending.
func ReplayInScratch(s *ViewScratch, g *Graph, center int32, channel string) (*LocalView, []float64) {
	w, err := g.Weights(channel)
	if err != nil && g.M() > 0 {
		panic(err)
	}
	var ix IDIndex
	ix.Reset(g.N())
	for _, id := range g.ids {
		ix.Note(id)
	}
	s.Begin(ix.Seal())
	for x := int32(0); int(x) < g.N(); x++ {
		for _, arc := range g.Arcs(x) {
			s.Edge(ix.At(g.ID(x)), ix.At(g.ID(arc.To)), w[arc.Edge])
		}
	}
	return s.View(ix.At(g.ID(center)), channel)
}

// ConcaveKeyOrders builds the concave sweep's sort keys for edges of weights
// w, as firstHopsConcave does, and returns them in radixSortKeys' order and
// in slices.Sort's.
func ConcaveKeyOrders(w []float64) (radix, sorted []uint64) {
	edges := make([]concaveEdge, len(w))
	for i := range w {
		edges[i].w = w[i]
	}
	keys, shift := concaveKeys(nil, edges)
	sorted = slices.Clone(keys)
	slices.Sort(sorted)
	radix, _ = radixSortKeys(keys, nil, shift)
	return radix, sorted
}

// Components returns the connected component id of every node and the number
// of components.
func Components(g *Graph) ([]int32, int) {
	comp := make([]int32, g.N())
	for i := range comp {
		comp[i] = -1
	}
	next := int32(0)
	for s := int32(0); int(s) < g.N(); s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = next
		queue := []int32{s}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, arc := range g.Arcs(x) {
				if comp[arc.To] == -1 {
					comp[arc.To] = next
					queue = append(queue, arc.To)
				}
			}
		}
		next++
	}
	return comp, int(next)
}
