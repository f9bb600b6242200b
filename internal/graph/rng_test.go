package graph

import (
	"math/rand"
	"testing"

	"qolsr/internal/metric"
)

func TestReduceRNGRemovesDominatedEdge(t *testing.T) {
	// Triangle with bandwidth: edge 0-1 (w=2) dominated by 0-2 (w=5) and
	// 2-1 (w=5): removed. For delay the same weights mean 0-1 is the
	// cheapest edge: kept, while 0-2 and 2-1 survive too (no witness).
	build := func() *Graph {
		g := New(3)
		type ew struct {
			a, b int32
			w    float64
		}
		for _, s := range []ew{{0, 1, 2}, {0, 2, 5}, {2, 1, 5}} {
			e := g.MustAddEdge(s.a, s.b)
			if err := g.SetWeight("bandwidth", e, s.w); err != nil {
				t.Fatal(err)
			}
			if err := g.SetWeight("delay", e, s.w); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}

	g := build()
	lv := NewLocalView(g, 0)
	rv := ReduceRNG(lv, metric.Bandwidth(), metricWeights(g, metric.Bandwidth()))
	if rv.HasEdge(0, 1) {
		t.Error("bandwidth: dominated edge 0-1 kept")
	}
	if !rv.HasEdge(0, 2) || !rv.HasEdge(2, 1) {
		t.Error("bandwidth: wide edges removed")
	}
	if rv.SurvivingDegree() != 1 {
		t.Errorf("SurvivingDegree = %d, want 1", rv.SurvivingDegree())
	}

	rvD := ReduceRNG(lv, metric.Delay(), metricWeights(g, metric.Delay()))
	if !rvD.HasEdge(0, 1) {
		t.Error("delay: cheapest edge removed")
	}
	// Edge 0-2 (w=5): witness node 1 with legs 0-1 (2) and 1-2 (5): leg
	// 1-2 is not strictly better than 5, so 0-2 survives.
	if !rvD.HasEdge(0, 2) {
		t.Error("delay: edge 0-2 removed without strict witness")
	}
}

func TestReduceRNGEqualWeightsKeepEverything(t *testing.T) {
	// Strictness on both legs: an equilateral triangle loses no edge.
	g := New(3)
	for _, ab := range [][2]int32{{0, 1}, {1, 2}, {0, 2}} {
		e := g.MustAddEdge(ab[0], ab[1])
		if err := g.SetWeight("delay", e, 3); err != nil {
			t.Fatal(err)
		}
	}
	lv := NewLocalView(g, 0)
	rv := ReduceRNG(lv, metric.Delay(), metricWeights(g, metric.Delay()))
	for _, ab := range [][2]int32{{0, 1}, {1, 2}, {0, 2}} {
		if !rv.HasEdge(ab[0], ab[1]) {
			t.Errorf("edge %v removed despite equal weights", ab)
		}
	}
}

func TestReduceRNGHasEdgeMissing(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1)
	if err := g.SetWeight("delay", 0, 1); err != nil {
		t.Fatal(err)
	}
	lv := NewLocalView(g, 0)
	rv := ReduceRNG(lv, metric.Delay(), metricWeights(g, metric.Delay()))
	if rv.HasEdge(0, 2) {
		t.Error("nonexistent edge reported present")
	}
}

// Property: the reduction never breaks connectivity of the view, because a
// removed edge always has a strictly better two-leg detour (the reduction
// contains a maximum/minimum spanning tree).
func TestReduceRNGPreservesViewConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		g := randomConnectedGraph(rng, 14, 0.3)
		u := int32(rng.Intn(14))
		lv := NewLocalView(g, u)
		for _, m := range []metric.Metric{metric.Delay(), metric.Bandwidth()} {
			w := metricWeights(g, m)
			rv := ReduceRNG(lv, m, w)
			// BFS from u over surviving view edges.
			seen := map[int32]bool{u: true}
			queue := []int32{u}
			for len(queue) > 0 {
				x := queue[0]
				queue = queue[1:]
				for _, arc := range g.Arcs(x) {
					if !lv.HasViewEdge(x, arc.To) || !rv.Keep[arc.Edge] || seen[arc.To] {
						continue
					}
					seen[arc.To] = true
					queue = append(queue, arc.To)
				}
			}
			for _, v := range lv.Targets() {
				if !seen[v] {
					t.Fatalf("trial %d %s: node %d disconnected by reduction", trial, m.Name(), v)
				}
			}
		}
	}
}

// Property: every surviving edge is not strictly dominated; every removed
// edge has a strict witness.
func TestReduceRNGWitnessSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 20; trial++ {
		g := randomConnectedGraph(rng, 12, 0.35)
		u := int32(rng.Intn(12))
		lv := NewLocalView(g, u)
		m := metric.Bandwidth()
		w := metricWeights(g, m)
		rv := ReduceRNG(lv, m, w)
		for _, e := range lv.ViewEdges(nil) {
			a, b := g.EdgeEndpoints(int(e))
			hasWitness := false
			for _, arcA := range g.Arcs(a) {
				z := arcA.To
				if z == b || !lv.HasViewEdge(a, z) {
					continue
				}
				eZB, ok := g.EdgeBetween(z, b)
				if !ok || !lv.HasViewEdge(z, b) {
					continue
				}
				if m.Better(w[arcA.Edge], w[e]) && m.Better(w[eZB], w[e]) {
					hasWitness = true
					break
				}
			}
			if rv.Keep[e] == hasWitness {
				t.Fatalf("trial %d: edge %d keep=%v but witness=%v", trial, e, rv.Keep[e], hasWitness)
			}
		}
	}
}

// HasEdge reports whether the edge joining a and b is part of the reduced
// view.
func (rv *ReducedView) HasEdge(a, b int32) bool {
	e, ok := rv.View.G.EdgeBetween(a, b)
	if !ok {
		return false
	}
	return rv.Keep[int32(e)]
}

// SurvivingDegree returns how many reduced-view edges touch the center; the
// classic RNG result predicts a small constant (~2.6 for random geometric
// graphs), which is why topology filtering advertises fewer neighbors than
// QOLSR.
func (rv *ReducedView) SurvivingDegree() int {
	d := 0
	for _, arc := range rv.View.G.Arcs(rv.View.U) {
		if rv.Keep[arc.Edge] {
			d++
		}
	}
	return d
}
