package graph

import (
	"math"
	"math/rand"
	"testing"

	"qolsr/internal/metric"
)

func TestDijkstraLineDelay(t *testing.T) {
	g := lineGraph(4, "delay", []float64{1, 2, 3})
	sp := Dijkstra(g, metric.Delay(), metricWeights(g, metric.Delay()), 0, nil, -1)
	want := []float64{0, 1, 3, 6}
	for i, w := range want {
		if sp.Dist[i] != w {
			t.Errorf("Dist[%d] = %v, want %v", i, sp.Dist[i], w)
		}
	}
	path := sp.PathTo(3)
	if len(path) != 4 || path[0] != 0 || path[3] != 3 {
		t.Errorf("PathTo(3) = %v", path)
	}
}

func TestDijkstraLineBandwidth(t *testing.T) {
	g := lineGraph(4, "bandwidth", []float64{9, 2, 7})
	sp := Dijkstra(g, metric.Bandwidth(), metricWeights(g, metric.Bandwidth()), 0, nil, -1)
	want := []float64{0, 9, 2, 2} // Dist[0] is Identity = +Inf; checked separately
	for i := 1; i < 4; i++ {
		if sp.Dist[i] != want[i] {
			t.Errorf("Dist[%d] = %v, want %v", i, sp.Dist[i], want[i])
		}
	}
}

func TestDijkstraWidestChoosesLongerPath(t *testing.T) {
	// Triangle: direct 0-2 is narrow (1); detour 0-1-2 is wide (5,5).
	g := New(3)
	e02 := g.MustAddEdge(0, 2)
	e01 := g.MustAddEdge(0, 1)
	e12 := g.MustAddEdge(1, 2)
	for _, ew := range []struct {
		e int
		w float64
	}{{e02, 1}, {e01, 5}, {e12, 5}} {
		if err := g.SetWeight("bandwidth", ew.e, ew.w); err != nil {
			t.Fatal(err)
		}
	}
	sp := Dijkstra(g, metric.Bandwidth(), metricWeights(g, metric.Bandwidth()), 0, nil, -1)
	if sp.Dist[2] != 5 {
		t.Errorf("widest value = %v, want 5", sp.Dist[2])
	}
	path := sp.PathTo(2)
	if len(path) != 3 || path[1] != 1 {
		t.Errorf("widest path = %v, want through node 1", path)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	e := g.MustAddEdge(0, 1)
	if err := g.SetWeight("delay", e, 1); err != nil {
		t.Fatal(err)
	}
	sp := Dijkstra(g, metric.Delay(), metricWeights(g, metric.Delay()), 0, nil, -1)
	if sp.Reachable(2) {
		t.Error("isolated node reported reachable")
	}
	if sp.PathTo(2) != nil {
		t.Error("PathTo returned a path to an unreachable node")
	}
	if len(sp.Reached) != 2 {
		t.Errorf("Reached = %v", sp.Reached)
	}
}

func TestDijkstraExcludeNode(t *testing.T) {
	// 0-1-2 with 1 excluded: 2 unreachable.
	g := lineGraph(3, "delay", []float64{1, 1})
	sp := Dijkstra(g, metric.Delay(), metricWeights(g, metric.Delay()), 0, nil, 1)
	if sp.Reachable(2) {
		t.Error("path through excluded node used")
	}
	// Excluded source: empty result.
	sp = Dijkstra(g, metric.Delay(), metricWeights(g, metric.Delay()), 1, nil, 1)
	if sp.Reachable(1) || len(sp.Reached) != 0 {
		t.Error("excluded source searched")
	}
}

func TestDijkstraRestrictedToView(t *testing.T) {
	// u(0)-a(1)-x(2)-b(3)-u: square plus an edge x-y(4) with y adjacent
	// only to x... make y 3 hops so the view excludes it.
	g := New(5)
	edges := [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {2, 4}}
	for _, ab := range edges {
		e := g.MustAddEdge(ab[0], ab[1])
		if err := g.SetWeight("delay", e, 1); err != nil {
			t.Fatal(err)
		}
	}
	// From u=0: N1={1,3}, N2={2}; node 4 is 3 hops away -> outside view.
	lv := NewLocalView(g, 0)
	sp := Dijkstra(g, metric.Delay(), metricWeights(g, metric.Delay()), 0, lv, -1)
	if !sp.Reachable(2) || sp.Dist[2] != 2 {
		t.Errorf("2-hop neighbor: dist %v reachable %v", sp.Dist[2], sp.Reachable(2))
	}
	if sp.Reachable(4) {
		t.Error("node outside the view reached")
	}
}

// Restricted search must ignore edges between two 2-hop neighbors, which is
// the paper's Fig. 2 localization argument (u unaware of link v8-v9).
func TestDijkstraViewIgnoresHiddenLinks(t *testing.T) {
	// u(0)-a(1) w=10, a-x(2) w=10, u-b(3) w=3, b-y(4) w=3, x-y w=10.
	// In the full graph the widest u->y is 3 via b... no: u-a-x-y = 10.
	// In G_u the x-y link is hidden, so the widest u->y is u-b-y = 3.
	g := New(5)
	type ew struct {
		a, b int32
		w    float64
	}
	for _, s := range []ew{{0, 1, 10}, {1, 2, 10}, {0, 3, 3}, {3, 4, 3}, {2, 4, 10}} {
		e := g.MustAddEdge(s.a, s.b)
		if err := g.SetWeight("bandwidth", e, s.w); err != nil {
			t.Fatal(err)
		}
	}
	m := metric.Bandwidth()
	w := metricWeights(g, m)
	full := Dijkstra(g, m, w, 0, nil, -1)
	if full.Dist[4] != 10 {
		t.Fatalf("full-graph widest = %v, want 10", full.Dist[4])
	}
	lv := NewLocalView(g, 0)
	local := Dijkstra(g, m, w, 0, lv, -1)
	if local.Dist[4] != 3 {
		t.Errorf("local-view widest = %v, want 3 (hidden link must not be used)", local.Dist[4])
	}
}

func TestDijkstraMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	metrics := []metric.Metric{metric.Delay(), metric.Bandwidth()}
	for trial := 0; trial < 30; trial++ {
		g := randomConnectedGraph(rng, 9, 0.35)
		for _, m := range metrics {
			w := metricWeights(g, m)
			src := int32(rng.Intn(g.N()))
			sp := Dijkstra(g, m, w, src, nil, -1)
			for dst := int32(0); int(dst) < g.N(); dst++ {
				if dst == src {
					continue
				}
				want, ok := BruteBestValue(g, m, w, src, dst, nil, -1)
				if ok != sp.Reachable(dst) {
					t.Fatalf("%s: reachability mismatch %d->%d", m.Name(), src, dst)
				}
				if ok && want != sp.Dist[dst] {
					t.Fatalf("%s: dist %d->%d = %v, want %v", m.Name(), src, dst, sp.Dist[dst], want)
				}
				// The extracted path must realise the optimal value.
				if ok {
					if got := PathValue(g, m, w, sp.PathTo(dst)); got != want {
						t.Fatalf("%s: PathTo value %v, want %v", m.Name(), got, want)
					}
				}
			}
		}
	}
}

func TestDijkstraRestrictedMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	metrics := []metric.Metric{metric.Delay(), metric.Bandwidth()}
	for trial := 0; trial < 20; trial++ {
		g := randomConnectedGraph(rng, 10, 0.3)
		u := int32(rng.Intn(g.N()))
		lv := NewLocalView(g, u)
		for _, m := range metrics {
			w := metricWeights(g, m)
			sp := Dijkstra(g, m, w, u, lv, -1)
			for _, v := range lv.Targets() {
				want, ok := BruteBestValue(g, m, w, u, v, lv, -1)
				if !ok {
					t.Fatalf("view target %d not brute-reachable", v)
				}
				if sp.Dist[v] != want {
					t.Fatalf("%s: view dist %d->%d = %v, want %v", m.Name(), u, v, sp.Dist[v], want)
				}
			}
		}
	}
}

func TestHopDistancesAndComponents(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(3, 4)
	hops := Dijkstra(g, metric.Hop(), make([]float64, g.M()), 0, nil, -1).Dist
	if hops[2] != 2 || !math.IsInf(hops[3], 1) {
		t.Errorf("hops = %v", hops)
	}
	comp, n := Components(g)
	if n != 2 {
		t.Fatalf("components = %d, want 2", n)
	}
	if comp[0] != comp[2] || comp[0] == comp[3] || comp[3] != comp[4] {
		t.Errorf("component ids = %v", comp)
	}
	seen := Reachable(g, 3)
	if !seen[4] || seen[0] {
		t.Errorf("Reachable = %v", seen)
	}
}
