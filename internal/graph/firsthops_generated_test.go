package graph_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"qolsr/internal/core"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
)

// checkFirstHops asserts a first-hop kernel's contract on one view under m:
// the fast kernel, FirstHopsReference and FirstHopsLex under the neutral pair
// (m, m) agree on every (target, hop) bit and on every node's Dist (nodes
// outside the view at Worst, the center at Identity), and small views also
// equal path enumeration. Dist is compared with ==: on the integer delay
// draws that is bit equality, and under bandwidth it holds the signed-zero
// law's +0 and −0 one value, as either may be copied off tied links.
func checkFirstHops(t *testing.T, what string, lv *graph.LocalView, m metric.Metric, w []float64) {
	t.Helper()
	g := lv.G
	fast, err := graph.ComputeFirstHops(lv, m, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.Dist) != g.N() {
		t.Fatalf("%s: len(Dist) = %d, want %d", what, len(fast.Dist), g.N())
	}
	lex := metric.Lexicographic{PrimaryMetric: m, SecondaryMetric: m}
	for name, ref := range map[string]*graph.FirstHops{
		"reference": graph.FirstHopsReference(lv, m, w),
		"lex":       graph.FirstHopsLex(lv, lex, w, w),
	} {
		for x := int32(0); int(x) < g.N(); x++ {
			if fast.Dist[x] != ref.Dist[x] {
				t.Fatalf("%s %s: Dist[%d] fast %v, %s %v", what, m.Name(), x, fast.Dist[x], name, ref.Dist[x])
			}
			for i := range lv.N1 {
				if fast.Contains(x, int32(i)) != ref.Contains(x, int32(i)) {
					t.Fatalf("%s %s: fP(u,%d) hop %d: fast %v, %s %v",
						what, m.Name(), x, lv.N1[i], fast.Contains(x, int32(i)), name, ref.Contains(x, int32(i)))
				}
			}
		}
	}
	for x := int32(0); int(x) < g.N(); x++ {
		if !lv.InView(x) && fast.Dist[x] != m.Worst() || x == lv.U && fast.Dist[x] != m.Identity() {
			t.Fatalf("%s %s: Dist[%d] = %v (role %v)", what, m.Name(), x, fast.Dist[x], lv.Role(x))
		}
	}
	if g.N() <= 9 {
		for _, v := range lv.Targets() {
			brute := graph.BruteFirstHops(lv, m, w, v)
			spurious := false
			fast.ForEach(v, func(i int32) { spurious = spurious || !brute[lv.N1[i]] })
			if fast.Count(v) != len(brute) || spurious {
				t.Fatalf("%s %s: |fP(u,%d)| = %d, path enumeration %v", what, m.Name(), v, fast.Count(v), brute)
			}
		}
	}
}

// checkFNBP asserts FNBP's selection body selects one set from the fast first
// hops (FNBP.Select) and from the definition-level ones (SelectFNBPLex under
// the neutral pair: FirstHopsLex, which FirstHopsReference is, with ≺ on the
// direct links' equal pairs, which is m's order).
func checkFNBP(t *testing.T, what string, lv *graph.LocalView, m metric.Metric, channel string) {
	t.Helper()
	w, _ := lv.G.Weights(channel)
	ans, err := core.FNBP{}.Select(lv, m, w)
	if err != nil {
		t.Fatal(err)
	}
	lex, err := core.SelectFNBPLex(lv, metric.Lexicographic{
		PrimaryMetric: m, SecondaryMetric: m,
		PrimaryWeight: channel, SecondaryWeight: channel,
	}, core.LoopFixLiteral)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ans, lex) {
		t.Fatalf("%s %s: FNBP fast %v, definition-level %v", what, m.Name(), ans, lex)
	}
}

// check runs both checks on the view of u in g, built by NewLocalView and
// replayed into s, under m on the named channel.
func check(t *testing.T, s *graph.ViewScratch, g *graph.Graph, u int32, m metric.Metric, channel string) {
	t.Helper()
	w, _ := g.Weights(channel)
	lv := graph.NewLocalView(g, u)
	checkFirstHops(t, "NewLocalView", lv, m, w)
	checkFNBP(t, "NewLocalView", lv, m, channel)
	slv, sw := graph.ReplayInScratch(s, g, u, channel)
	checkFirstHops(t, "ViewScratch", slv, m, sw)
	checkFNBP(t, "ViewScratch", slv, m, channel)
}

// The concave kernel against the reference on generated tie-heavy views, each
// built both ways; the draw must keep reaching the shapes that break sweeps.
// The integer-level draws run under delay too, their weights copied to a
// "delay" channel: equal sums of integer levels are the additive kernel's ties.
func TestFirstHopsConcaveGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var s graph.ViewScratch
	var leaf, split, flat, wide, outside int
	for trial := 0; trial < 2500; trial++ {
		g, u := graph.GenerateConcaveView(rng)
		lv := graph.NewLocalView(g, u)
		w, _ := g.Weights("bandwidth")
		for e, x := range w {
			if err := g.SetWeight("delay", e, x); err != nil {
				t.Fatal(err)
			}
		}
		check(t, &s, g, u, metric.Bandwidth(), "bandwidth")
		check(t, &s, g, u, metric.Delay(), "delay")

		// Which corners this draw hit.
		around := graph.New(g.N()) // G_u − u
		direct := map[float64]bool{}
		for _, n := range lv.N1 {
			if g.Degree(n) == 1 {
				leaf++
			}
			for _, arc := range g.Arcs(n) {
				if arc.To == u {
					direct[w[arc.Edge]] = true
				} else if _, dup := around.EdgeBetween(n, arc.To); !dup {
					around.MustAddEdge(n, arc.To)
				}
			}
		}
		// Components of G_u − u beyond the singletons u and the outsiders.
		if _, comps := graph.Components(around); comps-(g.N()-len(lv.N1)-len(lv.N2)) > 1 {
			split++
		}
		if len(direct) == 1 && len(lv.N1) > 2 {
			flat++
		}
		if len(lv.N1) > 64 {
			wide++
		}
		if 1+len(lv.N1)+len(lv.N2) < g.N() {
			outside++
		}
	}
	t.Logf("leaf %d, split %d, flat %d, wide %d, outside %d", leaf, split, flat, wide, outside)

	// The same draws under the weight laws integer levels do not reach:
	// levels a few ulps apart, continuous weights, signed levels with ±0.
	for trial := 0; trial < 900; trial++ {
		law := 1 + trial%3
		g, u := graph.GenerateConcaveView(rng)
		w, _ := g.Weights("bandwidth")
		for e := range w {
			w[e] = lawWeight(law, int(w[e])-1, rng.Intn(1<<20))
		}
		check(t, &s, g, u, metric.Bandwidth(), "bandwidth")
	}
	for name, hits := range map[string]int{
		"leaf neighbor": leaf, "G_u − u disconnected": split, "every direct link equal": flat,
		"|N1| > 64": wide, "nodes outside the view": outside,
	} {
		if hits < 50 {
			t.Errorf("%s: only %d of the draws; the generator lost a corner", name, hits)
		}
	}
}

// The concave sweep's radix sort orders E_u's keys exactly as a comparison
// sort does, at sizes around one and two key bytes of position bits, under
// every weight law on ten weight levels and under weights with a full random
// mantissa, whose low key bytes vary too.
func TestRadixSortKeysMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, size := range []int{0, 1, 2, 255, 256, 257, 1500} {
		for law := 0; law < 5; law++ {
			w := make([]float64, size)
			for i := range w {
				w[i] = lawWeight(law, rng.Intn(10), rng.Intn(1<<20))
				if law == 4 {
					w[i] = float64(rng.Intn(10)) + rng.Float64()
				}
			}
			radix, sorted := graph.ConcaveKeyOrders(w)
			if !slices.Equal(radix, sorted) {
				t.Errorf("|E_u| = %d, law %d: radix order differs from slices.Sort", size, law)
			}
		}
	}
}

// lawWeight is a link weight at 0-based level under one weight law; extra is
// the draw's spare randomness, below 2²⁰.
//
//	0  integer levels 1, 2, …, sim.PairWeight's law
//	1  levels a few ulps apart, 1 + level·2⁻⁵⁰: the sweep's sort keys drop
//	   those bits, so the insertion pass on the exact weights must order them
//	2  continuous: level + 1 plus a fraction below one
//	3  signed levels around zero, level − 2, with +0 and −0 both drawn
func lawWeight(law, level, extra int) float64 {
	switch law {
	case 1:
		return 1 + float64(level)*0x1p-50
	case 2:
		return float64(level+1) + float64(extra)*0x1p-20
	case 3:
		if level == 2 && extra&1 == 1 {
			return math.Copysign(0, -1)
		}
		return float64(level - 2)
	}
	return float64(level + 1)
}

// concaveFuzzView decodes a byte stream into a view: the node count (2–96, so
// a multi-block N1 stays reachable), the center, the number of weight levels
// (1–10) and the weight law (lawWeight; the byte's tens, modulo four), then
// one (a, b, weight) triple per link; self-loops and repeated pairs are
// skipped.
func concaveFuzzView(data []byte) (g *graph.Graph, center int32) {
	if len(data) < 3 {
		return nil, 0
	}
	n, levels, law := 2+int(data[0])%95, 1+int(data[2])%10, int(data[2])/10%4
	g = graph.New(n)
	for ops := data[3:]; len(ops) >= 3; ops = ops[3:] {
		a, b := int32(int(ops[0])%n), int32(int(ops[1])%n)
		if _, dup := g.EdgeBetween(a, b); a == b || dup {
			continue
		}
		w := lawWeight(law, int(ops[2])%levels, int(ops[2])/levels)
		if err := g.SetWeight("bandwidth", g.MustAddEdge(a, b), w); err != nil {
			panic(err)
		}
	}
	return g, int32(int(data[1]) % n)
}

// FuzzFirstHopsConcave hands the view to the fuzzer: whatever graph the bytes
// spell, the sweep equals the reference on sets and Dist, on both builders,
// without panicking. testdata/fuzz holds the four corner views as seeds, and
// one view under each of the other weight laws.
func FuzzFirstHopsConcave(f *testing.F) {
	var s graph.ViewScratch
	f.Fuzz(func(t *testing.T, data []byte) {
		g, u := concaveFuzzView(data)
		if g == nil {
			return
		}
		w, _ := g.Weights("bandwidth")
		checkFirstHops(t, "NewLocalView", graph.NewLocalView(g, u), metric.Bandwidth(), w)
		lv, sw := graph.ReplayInScratch(&s, g, u, "bandwidth")
		checkFirstHops(t, "ViewScratch", lv, metric.Bandwidth(), sw)
	})
}
