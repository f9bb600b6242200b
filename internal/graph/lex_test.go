package graph

import (
	"math/rand"
	"testing"

	"qolsr/internal/metric"
)

// lexSearch runs the kernel under lex over the channels it names.
func lexSearch(t *testing.T, g *Graph, lex metric.Lexicographic, src int32, view *LocalView, exclude int32) *ShortestPaths {
	t.Helper()
	wp, ws, err := LexWeights(g, lex)
	if err != nil {
		t.Fatalf("LexWeights: %v", err)
	}
	return new(Scratch).DijkstraLex(g, lex, wp, ws, src, view, exclude)
}

func lexCost(sp *ShortestPaths, x int32) metric.LexCost {
	return metric.LexCost{Primary: sp.Dist[x], Secondary: sp.Second[x]}
}

// bruteLex returns, for every node, the lexicographic optimum over all simple
// paths from src, composed link by link, whether any path reaches it, and
// whether paths of the optimal primary value differ in the secondary (so the
// secondary level decides the node).
func bruteLex(g *Graph, lex metric.Lexicographic, src int32) (best []metric.LexCost, reached, split []bool) {
	wp, ws, err := LexWeights(g, lex)
	if err != nil {
		panic(err)
	}
	p, s := lex.PrimaryMetric, lex.SecondaryMetric
	best = make([]metric.LexCost, g.N())
	for x := range best {
		best[x] = metric.LexCost{Primary: p.Worst(), Secondary: s.Worst()}
	}
	reached, split = make([]bool, g.N()), make([]bool, g.N())
	onPath := make([]bool, g.N())
	var walk func(x int32, c metric.LexCost)
	walk = func(x int32, c metric.LexCost) {
		switch {
		case !reached[x] || p.Better(c.Primary, best[x].Primary):
			best[x], split[x] = c, false
		case c.Primary == best[x].Primary:
			split[x] = split[x] || c.Secondary != best[x].Secondary
			if s.Better(c.Secondary, best[x].Secondary) {
				best[x] = c
			}
		}
		reached[x] = true
		onPath[x] = true
		for _, arc := range g.Arcs(x) {
			if !onPath[arc.To] {
				walk(arc.To, lex.Combine(c, metric.LexCost{Primary: wp[arc.Edge], Secondary: ws[arc.Edge]}))
			}
		}
		onPath[x] = false
	}
	walk(src, metric.LexCost{Primary: p.Identity(), Secondary: s.Identity()})
	return best, reached, split
}

// Under the neutral pair Lexicographic{m, m} both levels agree, so the
// kernel's primary values are the plain search's.
func TestDijkstraLexNeutralMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 15; trial++ {
		g := randomConnectedGraph(rng, 12, 0.3)
		src := int32(rng.Intn(12))
		for _, m := range []metric.Metric{metric.Delay(), metric.Bandwidth()} {
			plain := Dijkstra(g, m, metricWeights(g, m), src, nil, -1)
			lex := lexSearch(t, g, metric.Lexicographic{
				PrimaryMetric: m, SecondaryMetric: m,
				PrimaryWeight: m.Name(), SecondaryWeight: m.Name(),
			}, src, nil, -1)
			for x := int32(0); int(x) < g.N(); x++ {
				if lex.Reachable(x) != plain.Reachable(x) {
					t.Fatalf("%s: reachability differs at %d", m.Name(), x)
				}
				if lex.Reachable(x) && (lex.Dist[x] != plain.Dist[x] || lex.Second[x] != plain.Dist[x]) {
					t.Fatalf("%s: cost[%d] = %+v, plain %v", m.Name(), x, lexCost(lex, x), plain.Dist[x])
				}
			}
		}
	}
}

// The kernel under additive-primary pairs — (Hop, Bandwidth), the pair
// route.MinHopThenQoS routes on, and (Delay, Energy) — against brute-force
// enumeration of the lexicographic optimum on seeded graphs of at most 9
// nodes. An additive primary keeps the two-part order isotone, so every
// settled cost is the optimum; the settled tree's path must also compose to
// it. Weights sit on few integer levels, so both levels tie often.
func TestDijkstraLexAdditiveGenerated(t *testing.T) {
	pairs := []metric.Lexicographic{
		{PrimaryMetric: metric.Hop(), SecondaryMetric: metric.Bandwidth(), PrimaryWeight: "bandwidth", SecondaryWeight: "bandwidth"},
		{PrimaryMetric: metric.Delay(), SecondaryMetric: metric.Energy(), PrimaryWeight: "delay", SecondaryWeight: "energy"},
	}
	rng := rand.New(rand.NewSource(45))
	var split [2]int // targets the secondary level decides, per pair
	for trial := 0; trial < 600; trial++ {
		n := 2 + rng.Intn(8)
		p := 0.2 + 0.5*rng.Float64()
		g := New(n)
		for a := int32(0); int(a) < n; a++ {
			for b := a + 1; int(b) < n; b++ {
				if rng.Float64() >= p {
					continue
				}
				e := g.MustAddEdge(a, b)
				for _, ch := range []struct {
					name   string
					levels int
				}{{"bandwidth", 4}, {"delay", 3}, {"energy", 4}} {
					if err := g.SetWeight(ch.name, e, float64(1+rng.Intn(ch.levels))); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		src := int32(rng.Intn(n))
		for k, lex := range pairs {
			sp := lexSearch(t, g, lex, src, nil, -1)
			want, reached, decided := bruteLex(g, lex, src)
			wp, ws, _ := LexWeights(g, lex)
			for x := int32(0); int(x) < n; x++ {
				if sp.Reachable(x) != reached[x] {
					t.Fatalf("trial %d %s/%s: Reached[%d] = %v, enumeration %v",
						trial, lex.PrimaryMetric.Name(), lex.SecondaryMetric.Name(), x, sp.Reachable(x), reached[x])
				}
				if got := lexCost(sp, x); got != want[x] {
					t.Fatalf("trial %d %s/%s: Cost[%d] = %+v, enumeration %+v",
						trial, lex.PrimaryMetric.Name(), lex.SecondaryMetric.Name(), x, got, want[x])
				}
				if !reached[x] {
					continue
				}
				if decided[x] {
					split[k]++
				}
				path := sp.PathTo(x)
				c := metric.LexCost{Primary: lex.PrimaryMetric.Identity(), Secondary: lex.SecondaryMetric.Identity()}
				for i := 0; i+1 < len(path); i++ {
					e, _ := g.EdgeBetween(path[i], path[i+1])
					c = lex.Combine(c, metric.LexCost{Primary: wp[e], Secondary: ws[e]})
				}
				if c != want[x] {
					t.Fatalf("trial %d: PathTo(%d) = %v composes to %+v, want %+v", trial, x, path, c, want[x])
				}
				if path[0] != src || path[len(path)-1] != x {
					t.Fatalf("trial %d: PathTo(%d) = %v", trial, x, path)
				}
			}
		}
	}
	for k, n := range split {
		t.Logf("%s/%s: the secondary decided %d targets", pairs[k].PrimaryMetric.Name(), pairs[k].SecondaryMetric.Name(), n)
		if n < 250 {
			t.Errorf("%s/%s: the secondary decided only %d targets; the draw no longer exercises it",
				pairs[k].PrimaryMetric.Name(), pairs[k].SecondaryMetric.Name(), n)
		}
	}
}

func TestDijkstraLexMinHopThenBandwidth(t *testing.T) {
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
	sp := lexSearch(t, g, lex, 0, nil, -1)
	if sp.Dist[2] != 2 {
		t.Errorf("hops = %v, want 2", sp.Dist[2])
	}
	if sp.Second[2] != 5 {
		t.Errorf("bandwidth among min-hop = %v, want 5 (wide 2-hop path)", sp.Second[2])
	}
	path := sp.PathTo(2)
	if len(path) != 3 || path[1] != 1 {
		t.Errorf("path = %v, want through node 1", path)
	}
}

func TestDijkstraLexBandwidthThenEnergy(t *testing.T) {
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
	sp := lexSearch(t, g, lex, 0, nil, -1)
	if got := lexCost(sp, 3); got != (metric.LexCost{Primary: 5, Secondary: 5}) {
		t.Errorf("cost = %+v, want {5 5}", got)
	}
	if path := sp.PathTo(3); len(path) != 3 || path[1] != 2 {
		t.Errorf("path = %v, want through node 2", path)
	}
}

// TestDijkstraLexNotIsotone pins the Sec. V counterexample (ROADMAP item 23):
// s–a (bw 10, en 10), s–b (5, 1), b–a (5, 1), a–t (5, 1). Under
// Lexicographic{Bandwidth, Energy} the search settles a at {10, 10} over the
// wide direct link and extends only that label, so t gets {5, 11} over
// s–a–t. The optimum, which a brute force over every simple path finds, is
// {5, 3} over s–b–a–t: a (width, energy) order is not isotone, because the
// best value at a need not extend into the best value at t. The test pins
// what the search returns today beside the optimum, so item 23's exact
// kernel changes one expected value.
func TestDijkstraLexNotIsotone(t *testing.T) {
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
	sp := lexSearch(t, g, lex, s, nil, -1)
	best, _, _ := bruteLex(g, lex, s)
	if want := (metric.LexCost{Primary: 5, Secondary: 3}); best[dst] != want {
		t.Fatalf("brute-force optimum = %+v, want %+v", best[dst], want)
	}
	if got, pinned := lexCost(sp, dst), (metric.LexCost{Primary: 5, Secondary: 11}); got != pinned {
		t.Errorf("DijkstraLex cost = %+v, pinned %+v (optimum %+v)", got, pinned, best[dst])
	}
}

func TestDijkstraLexMissingChannel(t *testing.T) {
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
	if _, _, err := LexWeights(g, lex); err == nil {
		t.Error("missing channel accepted")
	}
}

func TestDijkstraLexExcludedSource(t *testing.T) {
	g := New(2)
	e := g.MustAddEdge(0, 1)
	if err := g.SetWeight("delay", e, 1); err != nil {
		t.Fatal(err)
	}
	sp := lexSearch(t, g, metric.Lexicographic{
		PrimaryMetric: metric.Delay(), SecondaryMetric: metric.Delay(),
		PrimaryWeight: "delay", SecondaryWeight: "delay",
	}, 0, nil, 0)
	if sp.Reachable(0) || sp.Reachable(1) {
		t.Error("excluded source searched")
	}
	if sp.PathTo(1) != nil {
		t.Error("path to unreached node")
	}
}
