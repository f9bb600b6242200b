package graph

import (
	"math/rand"
	"testing"

	"qolsr/internal/geom"
	"qolsr/internal/metric"
)

// routingDefects builds per-node tables on the full graph under m — every
// node runs Dijkstra on the same physical graph, so every view is perfect —
// and forwards every connected (source, destination) pair hop by hop on the
// tables' first hops. It returns the pairs that loop and, under a concave
// metric, the pairs whose recorded hop count exceeds the fewest hops among
// widest paths: a BFS from the source over the links at least the path's
// width wide.
func routingDefects(g *Graph, m metric.Metric, w []float64) (loops, excess, pairs int) {
	n := g.N()
	first := make([][]int32, n)
	hops := make([][]int32, n)
	sps := make([]*ShortestPaths, n)
	for s := range n {
		sps[s] = Dijkstra(g, m, w, int32(s), nil, -1)
		first[s], hops[s] = sps[s].FirstHops(nil, nil)
	}
	for s := range n {
		widest := map[float64][]int32{} // width → BFS hop counts from s
		for d := range n {
			if s == d || !sps[s].Reachable(int32(d)) {
				continue
			}
			pairs++
			x, steps := int32(s), 0
			for x != int32(d) && steps <= n {
				x = first[x][d]
				steps++
			}
			if x != int32(d) {
				loops++
			}
			if m.Kind() != metric.Concave {
				continue
			}
			width := sps[s].Dist[d]
			if widest[width] == nil {
				widest[width] = bfsAtLeast(g, w, int32(s), width)
			}
			if hops[s][d] > widest[width][d] {
				excess++
			}
		}
	}
	return loops, excess, pairs
}

// bfsAtLeast returns BFS hop counts from src over the links weighing at
// least width (-1 when unreachable).
func bfsAtLeast(g *Graph, w []float64, src int32, width float64) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{src}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, a := range g.Arcs(x) {
			if w[a.Edge] >= width && dist[a.To] < 0 {
				dist[a.To] = dist[x] + 1
				queue = append(queue, a.To)
			}
		}
	}
	return dist
}

// TestWidestRoutingLoops is the graph-level check of the routing-order
// defect (ROADMAP item 1),
// pinned at what the current search order does rather than fixed: ten
// seeded 450 × 450 unit-disk fields, R = 100, 129 nodes each (mean degree
// about 20), integer bandwidth weights in 1..10. Even with every node
// holding the whole graph, hop-by-hop forwarding on Dijkstra's widest-path
// tables loops on width ties, and the recorded hop counts are not the
// fewest among widest paths: (width, hops) is not isotone under a concave
// metric. Both counts are exact pins of that defect — the exact
// lexicographic kernel turns them to 0. The delay control, an additive and
// therefore isotone metric on the same weights, loops nowhere.
func TestWidestRoutingLoops(t *testing.T) {
	const (
		side, radius = 450, 100
		nodes        = 129
		wantLoops    = 438
		wantExcess   = 31312
	)
	var loops, excess, pairs, delayLoops int
	for f := range 10 {
		rng := rand.New(rand.NewSource(int64(2000 + f)))
		pts := make([]geom.Point, nodes)
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		}
		links, err := geom.Links(geom.Field{Width: side, Height: side}, radius, pts)
		if err != nil {
			t.Fatal(err)
		}
		w := make([]float64, len(links))
		for e := range w {
			w[e] = float64(1 + rng.Intn(10))
		}
		g := FromEdges(IndexIDs(nodes), links, "bandwidth", w)
		l, x, p := routingDefects(g, metric.Bandwidth(), w)
		loops, excess, pairs = loops+l, excess+x, pairs+p
		dl, _, _ := routingDefects(g, metric.Delay(), w)
		delayLoops += dl
	}
	t.Logf("bandwidth: %d of %d connected pairs loop, %d record more hops than the fewest widest path; delay: %d loop",
		loops, pairs, excess, delayLoops)
	if loops != wantLoops || excess != wantExcess {
		t.Errorf("bandwidth loops %d, hop excess %d; pinned at %d, %d", loops, excess, wantLoops, wantExcess)
	}
	if delayLoops != 0 {
		t.Errorf("delay control: %d pairs loop, want 0", delayLoops)
	}
}
