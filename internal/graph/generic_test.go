package graph

import (
	"math/rand"
	"testing"

	"qolsr/internal/metric"
)

func TestDijkstraGenericScalarMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 15; trial++ {
		g := randomConnectedGraph(rng, 12, 0.3)
		src := int32(rng.Intn(12))
		for _, m := range []metric.Metric{metric.Delay(), metric.Bandwidth()} {
			w := metricWeights(g, m)
			plain := Dijkstra(g, m, w, src, nil, -1)
			gen, err := DijkstraGeneric[float64](g, metric.Scalar{Metric: m}, src, nil, -1)
			if err != nil {
				t.Fatalf("DijkstraGeneric: %v", err)
			}
			for x := 0; x < g.N(); x++ {
				if gen.Reached[x] != plain.Reachable(int32(x)) {
					t.Fatalf("%s: reachability differs at %d", m.Name(), x)
				}
				if gen.Reached[x] && gen.Cost[x] != plain.Dist[x] {
					t.Fatalf("%s: cost[%d] = %v, plain %v", m.Name(), x, gen.Cost[x], plain.Dist[x])
				}
			}
		}
	}
}

func TestDijkstraGenericMinHopThenBandwidth(t *testing.T) {
	// QOLSR routing semantics: among minimum-hop paths pick the widest.
	// Square 0-1-2 (wide) and 0-3-2 (narrow), both 2 hops; plus a wide
	// 4-hop detour 0-4-5-6-2 that min-hop routing must ignore.
	g := New(7)
	type ew struct {
		a, b int32
		w    float64
	}
	for _, s := range []ew{
		{0, 1, 5}, {1, 2, 5},
		{0, 3, 2}, {3, 2, 9},
		{0, 4, 10}, {4, 5, 10}, {5, 6, 10}, {6, 2, 10},
	} {
		e := g.MustAddEdge(s.a, s.b)
		if err := g.SetWeight("bandwidth", e, s.w); err != nil {
			t.Fatal(err)
		}
	}
	lex := metric.Lexicographic{
		PrimaryMetric:   metric.Hop(),
		SecondaryMetric: metric.Bandwidth(),
		PrimaryWeight:   "bandwidth", // Hop ignores the value
		SecondaryWeight: "bandwidth",
	}
	gs, err := DijkstraGeneric[metric.LexCost](g, lex, 0, nil, -1)
	if err != nil {
		t.Fatalf("DijkstraGeneric: %v", err)
	}
	got := gs.Cost[2]
	if got.Primary != 2 {
		t.Errorf("hops = %v, want 2", got.Primary)
	}
	if got.Secondary != 5 {
		t.Errorf("bandwidth among min-hop = %v, want 5 (wide 2-hop path)", got.Secondary)
	}
	path := gs.PathTo(2)
	if len(path) != 3 || path[1] != 1 {
		t.Errorf("path = %v, want through node 1", path)
	}
}

func TestDijkstraGenericLexBandwidthThenEnergy(t *testing.T) {
	// Future-work extension: among widest paths minimise energy.
	g := New(4)
	type ew struct {
		a, b   int32
		bw, en float64
	}
	for _, s := range []ew{
		{0, 1, 5, 10}, {1, 3, 5, 10}, // widest, expensive: bw 5, energy 20
		{0, 2, 5, 2}, {2, 3, 5, 3}, // widest, cheap: bw 5, energy 5
	} {
		e := g.MustAddEdge(s.a, s.b)
		if err := g.SetWeight("bandwidth", e, s.bw); err != nil {
			t.Fatal(err)
		}
		if err := g.SetWeight("energy", e, s.en); err != nil {
			t.Fatal(err)
		}
	}
	lex := metric.Lexicographic{
		PrimaryMetric:   metric.Bandwidth(),
		SecondaryMetric: metric.Energy(),
		PrimaryWeight:   "bandwidth",
		SecondaryWeight: "energy",
	}
	gs, err := DijkstraGeneric[metric.LexCost](g, lex, 0, nil, -1)
	if err != nil {
		t.Fatalf("DijkstraGeneric: %v", err)
	}
	if gs.Cost[3].Primary != 5 || gs.Cost[3].Secondary != 5 {
		t.Errorf("cost = %+v, want {5 5}", gs.Cost[3])
	}
	if path := gs.PathTo(3); len(path) != 3 || path[1] != 2 {
		t.Errorf("path = %v, want through node 2", path)
	}
}

// TestDijkstraGenericLexNotIsotone pins the Sec. V counterexample (ROADMAP
// item 2): s–a (bw 10, en 10), s–b (5, 1), b–a (5, 1), a–t (5, 1). Under
// Lexicographic{Bandwidth, Energy} the search settles a at {10, 10} over the
// wide direct link and extends only that label, so t gets {5, 11} over
// s–a–t. The optimum, which a brute force over every simple path finds, is
// {5, 3} over s–b–a–t: a (width, energy) order is not isotone, because the
// best value at a need not extend into the best value at t. The test pins
// what the search returns today beside the optimum, so item 2's exact
// kernel changes one expected value.
func TestDijkstraGenericLexNotIsotone(t *testing.T) {
	const s, a, b, dst = 0, 1, 2, 3
	g := New(4)
	for _, l := range []struct {
		x, y   int32
		bw, en float64
	}{{s, a, 10, 10}, {s, b, 5, 1}, {b, a, 5, 1}, {a, dst, 5, 1}} {
		e := g.MustAddEdge(l.x, l.y)
		if err := g.SetWeight("bandwidth", e, l.bw); err != nil {
			t.Fatal(err)
		}
		if err := g.SetWeight("energy", e, l.en); err != nil {
			t.Fatal(err)
		}
	}
	lex := metric.Lexicographic{
		PrimaryMetric:   metric.Bandwidth(),
		SecondaryMetric: metric.Energy(),
		PrimaryWeight:   "bandwidth",
		SecondaryWeight: "energy",
	}
	gs, err := DijkstraGeneric[metric.LexCost](g, lex, s, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force: every simple path from s to dst, composed link by link.
	bw, _ := g.Weights("bandwidth")
	en, _ := g.Weights("energy")
	best := lex.Worst()
	onPath := make([]bool, g.N())
	var walk func(x int32, c metric.LexCost)
	walk = func(x int32, c metric.LexCost) {
		if x == dst {
			if lex.Better(c, best) {
				best = c
			}
			return
		}
		onPath[x] = true
		for _, arc := range g.Arcs(x) {
			if !onPath[arc.To] {
				walk(arc.To, lex.Combine(c, metric.LexCost{Primary: bw[arc.Edge], Secondary: en[arc.Edge]}))
			}
		}
		onPath[x] = false
	}
	walk(s, lex.Identity())
	if want := (metric.LexCost{Primary: 5, Secondary: 3}); best != want {
		t.Fatalf("brute-force optimum = %+v, want %+v", best, want)
	}
	if got, pinned := gs.Cost[dst], (metric.LexCost{Primary: 5, Secondary: 11}); got != pinned {
		t.Errorf("DijkstraGeneric cost = %+v, pinned %+v (optimum %+v)", got, pinned, best)
	}
}

func TestDijkstraGenericMissingChannel(t *testing.T) {
	g := New(2)
	e := g.MustAddEdge(0, 1)
	if err := g.SetWeight("bandwidth", e, 1); err != nil {
		t.Fatal(err)
	}
	lex := metric.Lexicographic{
		PrimaryMetric:   metric.Bandwidth(),
		SecondaryMetric: metric.Energy(),
		PrimaryWeight:   "bandwidth",
		SecondaryWeight: "energy",
	}
	if _, err := DijkstraGeneric[metric.LexCost](g, lex, 0, nil, -1); err == nil {
		t.Error("missing channel accepted")
	}
}

func TestDijkstraGenericExcludedSource(t *testing.T) {
	g := New(2)
	e := g.MustAddEdge(0, 1)
	if err := g.SetWeight("delay", e, 1); err != nil {
		t.Fatal(err)
	}
	gs, err := DijkstraGeneric[float64](g, metric.Scalar{Metric: metric.Delay()}, 0, nil, 0)
	if err != nil {
		t.Fatalf("DijkstraGeneric: %v", err)
	}
	if gs.Reached[0] || gs.Reached[1] {
		t.Error("excluded source searched")
	}
	if gs.PathTo(1) != nil {
		t.Error("path to unreached node")
	}
}
