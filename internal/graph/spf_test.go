package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"qolsr/internal/metric"
)

// checkCanonical verifies that the SPF solution is bit-identical to a full
// canonical Dijkstra rebuild on the same graph: values, hop counts,
// predecessors and first hops.
func checkCanonical(t *testing.T, g *Graph, s *SPF, m metric.Metric, scr *Scratch, step int) {
	t.Helper()
	w, err := g.Weights(m.Name())
	if err != nil {
		t.Fatal(err)
	}
	ref := scr.Dijkstra(g, m, w, s.src, nil, -1)
	refFirst, refHops := ref.FirstHops(nil, nil)
	first := s.FirstHops(nil)
	for x := int32(0); int(x) < g.N(); x++ {
		if s.Reachable(x) != ref.Reachable(x) {
			t.Fatalf("step %d: node %d reachable=%v, full rebuild says %v",
				step, x, s.Reachable(x), ref.Reachable(x))
		}
		if s.Value(x) != ref.Dist[x] {
			t.Fatalf("step %d: node %d value %v, full rebuild %v",
				step, x, s.Value(x), ref.Dist[x])
		}
		if !ref.Reachable(x) {
			continue
		}
		if s.Hops(x) != refHops[x] {
			t.Fatalf("step %d: node %d hops %d, full rebuild %d",
				step, x, s.Hops(x), refHops[x])
		}
		if s.prev[x] != ref.prev[x] {
			t.Fatalf("step %d: node %d prev %d (id %v), full rebuild %d (id %v)",
				step, x, s.prev[x], g.ID(s.prev[x]), ref.prev[x], g.ID(ref.prev[x]))
		}
		if first[x] != refFirst[x] {
			t.Fatalf("step %d: node %d first hop %d, full rebuild %d",
				step, x, first[x], refFirst[x])
		}
	}
}

// mutateRandom applies one random edge mutation to g (add, remove, or
// reweight an edge) and reports it to the SPF.
func mutateRandom(t *testing.T, g *Graph, s *SPF, rng *rand.Rand, channel string) {
	t.Helper()
	switch op := rng.Intn(10); {
	case op <= 3 && g.M() > 0:
		// Remove a random edge.
		e := rng.Intn(g.M())
		a, b := g.EdgeEndpoints(e)
		if err := g.RemoveEdge(e); err != nil {
			t.Fatal(err)
		}
		s.Touch(a, b)
	case op <= 6:
		// Add a random missing edge.
		a := int32(rng.Intn(g.N()))
		b := int32(rng.Intn(g.N()))
		if a == b {
			return
		}
		if _, ok := g.EdgeBetween(a, b); ok {
			return
		}
		e, err := g.AddEdge(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.SetWeight(channel, e, 1+rng.Float64()*9); err != nil {
			t.Fatal(err)
		}
		s.Touch(a, b)
	default:
		// Reweight a random edge.
		if g.M() == 0 {
			return
		}
		e := rng.Intn(g.M())
		if err := g.SetWeight(channel, e, 1+rng.Float64()*9); err != nil {
			t.Fatal(err)
		}
		a, b := g.EdgeEndpoints(e)
		s.Touch(a, b)
	}
}

// TestSPFRandomizedCrossCheck drives long randomized add/remove/reweight
// sequences and cross-checks the incrementally repaired solution against a
// full canonical Dijkstra rebuild after every batch — values, hops,
// predecessors and first hops must be bit-identical, for both the additive
// and the concave metric.
func TestSPFRandomizedCrossCheck(t *testing.T) {
	metrics := []metric.Metric{metric.Delay(), metric.Bandwidth(), metric.Hop()}
	for _, m := range metrics {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				rng := rand.New(rand.NewSource(seed))
				const n = 32
				// IDs deliberately not in index order: canonical
				// tie-breaking must follow IDs, never indices.
				ids := make([]NodeID, n)
				for i := range ids {
					ids[i] = NodeID((i*7 + 3) % (n * 7))
				}
				g, err := NewWithIDs(ids)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 3*n; i++ {
					a := int32(rng.Intn(n))
					b := int32(rng.Intn(n))
					if a == b {
						continue
					}
					if _, ok := g.EdgeBetween(a, b); ok {
						continue
					}
					e, err := g.AddEdge(a, b)
					if err != nil {
						t.Fatal(err)
					}
					// Small integer-ish weights force frequent metric
					// ties, stressing the canonical tie-break.
					if err := g.SetWeight(m.Name(), e, float64(1+rng.Intn(4))); err != nil {
						t.Fatal(err)
					}
				}
				s, err := NewSPF(g, m, m.Name(), 0)
				if err != nil {
					t.Fatal(err)
				}
				scr := new(Scratch)
				checkCanonical(t, g, s, m, scr, -1)
				for step := 0; step < 120; step++ {
					// Batch one to four mutations per repair.
					for k := 1 + rng.Intn(4); k > 0; k-- {
						mutateRandom(t, g, s, rng, m.Name())
					}
					if err := s.Repair(); err != nil {
						t.Fatal(err)
					}
					checkCanonical(t, g, s, m, scr, step)
				}
			}
		})
	}
}

// TestSPFRepairNoOp checks that a repair with no touches changes nothing
// and that a fresh solver on the same graph finds the same solution.
func TestSPFRepairNoOp(t *testing.T) {
	g := New(4)
	m := metric.Delay()
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 3}, {0, 3}} {
		idx, err := g.AddEdge(e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := g.SetWeight(m.Name(), idx, 1); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewSPF(g, m, m.Name(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%v %v", s.dist, s.prev)
	if err := s.Repair(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%v %v", s.dist, s.prev); got != want {
		t.Fatalf("no-op repair changed solution: %s -> %s", want, got)
	}
	fresh, err := NewSPF(g, m, m.Name(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%v %v", fresh.dist, fresh.prev); got != want {
		t.Fatalf("full rebuild changed solution: %s -> %s", want, got)
	}
}
