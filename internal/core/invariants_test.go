package core

import (
	"math/rand"
	"testing"

	"qolsr/internal/graph"
	"qolsr/internal/metric"
)

// The FNBP covering invariant: after selection, every 1- and 2-hop target is
// served — either its direct link is optimal, or some selected neighbor
// starts an optimal path to it. This is the property that makes the
// advertised set sufficient for QoS routing inside the two-hop horizon.
func TestFNBPCoveringInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for trial := 0; trial < 30; trial++ {
		g := randomWeightedGraph(rng, 16+rng.Intn(10), 0.2+rng.Float64()*0.2)
		for _, m := range []metric.Metric{metric.Bandwidth(), metric.Delay()} {
			w, _ := g.Weights(m.Name())
			for u := int32(0); int(u) < g.N(); u++ {
				lv := graph.NewLocalView(g, u)
				ans, err := FNBP{}.Select(lv, m, w)
				if err != nil {
					t.Fatal(err)
				}
				inANS := map[int32]bool{}
				for _, x := range ans {
					inANS[x] = true
				}
				fh, err := graph.ComputeFirstHops(lv, m, w)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range lv.Targets() {
					served := false
					if i := lv.N1Index(v); i >= 0 && fh.Contains(v, i) {
						served = true // direct link optimal
					}
					fh.ForEach(v, func(pos int32) {
						if inANS[lv.N1[pos]] {
							served = true
						}
					})
					if !served {
						t.Fatalf("trial %d %s u=%d: target %d unserved by ANS %v (|fP|=%d)",
							trial, m.Name(), u, v, ans, fh.Count(v))
					}
				}
			}
		}
	}
}

// The same invariant holds for every loop-fix variant (the rule only ever
// adds neighbors).
func TestFNBPCoveringInvariantAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	g := randomWeightedGraph(rng, 20, 0.25)
	m := metric.Bandwidth()
	w, _ := g.Weights(m.Name())
	base := map[int32]int{}
	for u := int32(0); int(u) < g.N(); u++ {
		lv := graph.NewLocalView(g, u)
		off, err := FNBP{LoopFix: LoopFixOff}.Select(lv, m, w)
		if err != nil {
			t.Fatal(err)
		}
		base[u] = len(off)
		for _, mode := range []LoopFixMode{LoopFixLiteral, LoopFixAdjacent} {
			ans, err := FNBP{LoopFix: mode}.Select(lv, m, w)
			if err != nil {
				t.Fatal(err)
			}
			if len(ans) < base[u] {
				t.Fatalf("u=%d: loop-fix variant %v shrank the set (%d < %d)",
					u, mode, len(ans), base[u])
			}
			// The no-fix set must be a subset of the fixed set.
			in := map[int32]bool{}
			for _, x := range ans {
				in[x] = true
			}
			for _, x := range off {
				if !in[x] {
					t.Fatalf("u=%d: fix variant %v dropped member %d", u, mode, x)
				}
			}
		}
	}
}

// Topology filtering counts as fallbacks exactly the targets that no route of
// at most two reduced hops reaches: neither a surviving direct link nor a
// detour whose two legs both survive.
func TestTopologyFilterServiceAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(205))
	for trial := 0; trial < 10; trial++ {
		g := randomWeightedGraph(rng, 18, 0.25)
		m := metric.Bandwidth()
		w, _ := g.Weights(m.Name())
		for u := int32(0); int(u) < g.N(); u++ {
			lv := graph.NewLocalView(g, u)
			_, stats, err := TopologyFilter{}.SelectWithStats(lv, m, w)
			if err != nil {
				t.Fatal(err)
			}
			keep := graph.ReduceRNG(lv, m, w).Keep
			unreached := 0
			for _, v := range lv.Targets() {
				reached := false
				for i, x := range lv.N1 {
					e, ok := g.EdgeBetween(x, v)
					if keep[lv.DirectEdge(i)] && (x == v || ok && keep[int32(e)]) {
						reached = true
					}
				}
				if !reached {
					unreached++
				}
			}
			if stats.FallbackTargets != unreached {
				t.Fatalf("u=%d: FallbackTargets = %d, %d targets beyond two reduced hops",
					u, stats.FallbackTargets, unreached)
			}
		}
	}
}
