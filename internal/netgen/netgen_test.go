package netgen

import (
	"math/rand"
	"testing"

	"qolsr/internal/geom"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
)

func TestBuildProducesValidWeightedUDG(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dep := geom.PaperDeployment(12)
	g, err := Build(dep, "bandwidth", metric.Interval{Lo: 1, Hi: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid graph: %v", err)
	}
	if g.N() < 200 {
		t.Errorf("suspiciously few nodes: %d", g.N())
	}
	w, err := g.Weights("bandwidth")
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range w {
		if x < 1 || x > 10 {
			t.Fatalf("weight %v outside interval", x)
		}
	}
}

func TestBuildPropagatesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Build(geom.Deployment{}, "x", metric.Interval{Lo: 1, Hi: 2}, rng); err == nil {
		t.Error("invalid deployment accepted")
	}
	dep := geom.PaperDeployment(5)
	if _, err := Build(dep, "x", metric.Interval{Lo: 0, Hi: 2}, rng); err == nil {
		t.Error("invalid interval accepted")
	}
}

func TestPickConnectedPair(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.New(6)
	// Two components: {0,1,2} and {3,4,5}.
	mustAddEdge(g, 0, 1)
	mustAddEdge(g, 1, 2)
	mustAddEdge(g, 3, 4)
	mustAddEdge(g, 4, 5)
	for i := 0; i < 50; i++ {
		src, dst, err := PickConnectedPair(g, rng, 100)
		if err != nil {
			t.Fatal(err)
		}
		if src == dst {
			t.Fatal("src == dst")
		}
		reach := graph.Reachable(g, src)
		if !reach[dst] {
			t.Fatalf("pair (%d,%d) not connected", src, dst)
		}
	}
}

func TestPickConnectedPairFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if _, _, err := PickConnectedPair(graph.New(1), rng, 10); err == nil {
		t.Error("single-node graph accepted")
	}
	// Fully disconnected graph: no pair exists.
	if _, _, err := PickConnectedPair(graph.New(5), rng, 10); err == nil {
		t.Error("edgeless graph produced a pair")
	}
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
