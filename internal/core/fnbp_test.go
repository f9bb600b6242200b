package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/paperex"
)

func figWeights(t *testing.T, g *graph.Graph) []float64 {
	t.Helper()
	w, err := g.Weights(paperex.Channel)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func names(f *paperex.Fixture, idx []int32) []string {
	out := make([]string, len(idx))
	for i, x := range idx {
		out[i] = f.G.Label(x)
	}
	return out
}

// TestFigure2FNBPSelection walks the paper's Sec. III-B narrative on the
// Fig. 2 network: u ends up advertising exactly {v1, v6, v7}, with the
// covered targets assigned as the text describes.
func TestFigure2FNBPSelection(t *testing.T) {
	f := paperex.Figure2()
	u := f.Node("u")
	lv := graph.NewLocalView(f.G, u)
	w := figWeights(t, f.G)
	m := metric.Bandwidth()

	sel, err := FNBP{}.SelectFull(lv, m, w)
	if err != nil {
		t.Fatal(err)
	}
	got := names(f, sel.ANS)
	want := []string{"v1", "v6", "v7"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ANS(u) = %v, want %v", got, want)
	}

	// Cover assignments from the narrative:
	cases := map[string]string{
		"v1":  "v1", // direct link optimal
		"v2":  "v2", // direct link optimal
		"v4":  "v1", // u selects v1: u-v1-v5-v4 of bw 5 beats direct 3
		"v5":  "v1", // "assume u first selects v1 for reaching v5"
		"v6":  "v6",
		"v7":  "v7", // "u will not select another ANS for reaching v7"
		"v3":  "v1", // "v1 is already in ANS(u) and belongs to fP"
		"v10": "v1", // "it will choose v1 over v5 as it is already in its ANS"
		"v11": "v6", // "u will choose v6 instead of v2 ... better bandwidth"
		"v8":  "v6",
		"v9":  "v7",
	}
	for target, hop := range cases {
		got, ok := sel.Cover[f.Node(target)]
		if !ok {
			t.Errorf("no cover assignment for %s", target)
			continue
		}
		if f.G.Label(got) != hop {
			t.Errorf("cover[%s] = %s, want %s", target, f.G.Label(got), hop)
		}
	}
	if sel.Stats.Step1Selected != 1 {
		t.Errorf("Step1Selected = %d, want 1 (v1 for v4)", sel.Stats.Step1Selected)
	}
	if sel.Stats.Step2Selected != 2 {
		t.Errorf("Step2Selected = %d, want 2 (v6 for v8, v7 for v9)", sel.Stats.Step2Selected)
	}
	if sel.Stats.LoopFixSelected != 0 {
		t.Errorf("LoopFixSelected = %d, want 0 on Fig. 2", sel.Stats.LoopFixSelected)
	}
}

// TestFigure2LocalizationLimit checks the Fig. 2 localization argument: in
// G_u node u reaches v9 at bandwidth 3 via v7, although the full graph
// contains u-v6-v8-v9 at bandwidth 5 through a link u cannot see.
func TestFigure2LocalizationLimit(t *testing.T) {
	f := paperex.Figure2()
	u, v9 := f.Node("u"), f.Node("v9")
	w := figWeights(t, f.G)
	m := metric.Bandwidth()

	lv := graph.NewLocalView(f.G, u)
	if lv.HasViewEdge(f.Node("v8"), v9) {
		t.Fatal("link (v8,v9) must be invisible to u")
	}
	local := graph.Dijkstra(f.G, m, w, u, lv, -1)
	if local.Dist[v9] != 3 {
		t.Errorf("local best to v9 = %v, want 3", local.Dist[v9])
	}
	full := graph.Dijkstra(f.G, m, w, u, nil, -1)
	if full.Dist[v9] != 5 {
		t.Errorf("global best to v9 = %v, want 5", full.Dist[v9])
	}
}

// TestFigure4LoopAndFix reproduces the Fig. 4 pathology end to end: without
// the loop-fix rule A and B assign each other as forwarder for E, D is
// selected by nobody, and hop-by-hop forwarding loops; with the rule
// (default), A selects D and the packet A->E is delivered.
func TestFigure4LoopAndFix(t *testing.T) {
	f := paperex.Figure4()
	w := figWeights(t, f.G)
	m := metric.Bandwidth()
	A, B, D, E := f.Node("A"), f.Node("B"), f.Node("D"), f.Node("E")

	selections := func(fn FNBP) map[int32]*Selection {
		out := make(map[int32]*Selection)
		for x := int32(0); int(x) < f.G.N(); x++ {
			lv := graph.NewLocalView(f.G, x)
			sel, err := fn.SelectFull(lv, m, w)
			if err != nil {
				t.Fatal(err)
			}
			out[x] = sel
		}
		return out
	}

	// Without the fix: mutual assignment A<->B for destination E.
	broken := selections(FNBP{LoopFix: LoopFixOff})
	if got := broken[A].Cover[E]; got != B {
		t.Errorf("no-fix: cover_A[E] = %s, want B", f.G.Label(got))
	}
	if got := broken[B].Cover[E]; got != A {
		t.Errorf("no-fix: cover_B[E] = %s, want A", f.G.Label(got))
	}
	// "D has been selected by no node": none of E's prospective sources
	// advertises D, so no advertised link leads toward E's only access.
	for _, x := range []int32{A, B, f.Node("C")} {
		for _, a := range broken[x].ANS {
			if a == D {
				t.Errorf("no-fix: %s selected D", f.G.Label(x))
			}
		}
	}

	// With the fix: A additionally selects D and forwards for E through
	// it.
	fixed := selections(FNBP{})
	wantANS := []string{"B", "D"}
	if got := names(f, fixed[A].ANS); !reflect.DeepEqual(got, wantANS) {
		t.Errorf("fix: ANS(A) = %v, want %v", got, wantANS)
	}
	if got := fixed[A].Cover[E]; got != D {
		t.Errorf("fix: cover_A[E] = %s, want D", f.G.Label(got))
	}
	if fixed[A].Stats.LoopFixSelected != 1 {
		t.Errorf("fix: LoopFixSelected = %d, want 1", fixed[A].Stats.LoopFixSelected)
	}

	// Hop-by-hop forwarding from A to E over the cover assignments.
	deliver := func(sels map[int32]*Selection, src, dst int32) bool {
		at := src
		for hops := 0; hops < f.G.N()+1; hops++ {
			if at == dst {
				return true
			}
			next, ok := sels[at].Cover[dst]
			if !ok {
				return false
			}
			at = next
		}
		return false // looped
	}
	if deliver(broken, A, E) {
		t.Error("no-fix: delivery A->E unexpectedly succeeded")
	}
	if deliver(broken, B, E) {
		t.Error("no-fix: delivery B->E unexpectedly succeeded")
	}
	if !deliver(fixed, A, E) {
		t.Error("fix: delivery A->E failed")
	}
	if !deliver(fixed, B, E) {
		t.Error("fix: delivery B->E failed")
	}
}

// TestFigure4OtherSelections pins the remaining per-node sets so the
// narrative stays consistent ("B selects A anyway to cover D").
func TestFigure4OtherSelections(t *testing.T) {
	f := paperex.Figure4()
	w := figWeights(t, f.G)
	m := metric.Bandwidth()
	expect := map[string][]string{
		"B": {"A"},
		"C": {"B"},
		"D": {"A"},
		"E": {"D"},
	}
	for node, want := range expect {
		lv := graph.NewLocalView(f.G, f.Node(node))
		ans, err := FNBP{}.Select(lv, m, w)
		if err != nil {
			t.Fatal(err)
		}
		if got := names(f, ans); !reflect.DeepEqual(got, want) {
			t.Errorf("ANS(%s) = %v, want %v", node, got, want)
		}
	}
	// B's selection of A happens in step 1, covering its weak direct
	// link to D ("will have to be selected anyway to cover D").
	lv := graph.NewLocalView(f.G, f.Node("B"))
	sel, err := FNBP{}.SelectFull(lv, m, w)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Stats.Step1Selected != 1 {
		t.Errorf("B: Step1Selected = %d, want 1", sel.Stats.Step1Selected)
	}
}

func TestFNBPDelayMetricSymmetry(t *testing.T) {
	// Algorithm 2 is Algorithm 1 under the delay metric: on a line
	// u-a-b with a costly direct link u-b, u selects nothing (direct
	// links are optimal)... direct u-b=5 vs u-a-b=2: u advertises a.
	g := graph.New(3)
	type ew struct {
		a, b int32
		w    float64
	}
	for _, s := range []ew{{0, 1, 1}, {1, 2, 1}, {0, 2, 5}} {
		e := mustAddEdge(g, s.a, s.b)
		if err := g.SetWeight("delay", e, s.w); err != nil {
			t.Fatal(err)
		}
	}
	lv := graph.NewLocalView(g, 0)
	w, _ := g.Weights("delay")
	ans, err := FNBP{}.Select(lv, metric.Delay(), w)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || ans[0] != 1 {
		t.Errorf("ANS = %v, want [1]", ans)
	}
}

func TestFNBPEmptyNeighborhood(t *testing.T) {
	g := graph.New(2) // two isolated nodes
	lv := graph.NewLocalView(g, 0)
	ans, err := FNBP{}.Select(lv, metric.Bandwidth(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 0 {
		t.Errorf("ANS = %v, want empty", ans)
	}
}

// Property: the fast kernels, the definition-level reference and the
// lexicographic search under the neutral pair (m, m) compute the same first
// hops, and the selection body selects the same set from each.
func TestFNBPFastMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 25; trial++ {
		g := randomWeightedGraph(rng, 14, 0.3)
		for _, m := range []metric.Metric{metric.Bandwidth(), metric.Delay()} {
			w, err := g.Weights(m.Name())
			if err != nil {
				t.Fatal(err)
			}
			lex := metric.Lexicographic{PrimaryMetric: m, SecondaryMetric: m}
			for u := int32(0); int(u) < g.N(); u++ {
				lv := graph.NewLocalView(g, u)
				fast, err := graph.ComputeFirstHops(lv, m, w)
				if err != nil {
					t.Fatal(err)
				}
				sources := map[string]*graph.FirstHops{
					"reference": graph.FirstHopsReference(lv, m, w),
					"lex":       graph.FirstHopsLex(lv, lex, w, w),
				}
				want, _ := selectFNBP(lv, fast, directBetter(m, fast), LoopFixLiteral, nil)
				for name, fh := range sources {
					for x := int32(0); int(x) < g.N(); x++ {
						same := fh.Dist[x] == fast.Dist[x] && fh.Count(x) == fast.Count(x)
						fh.ForEach(x, func(i int32) { same = same && fast.Contains(x, i) })
						if !same {
							t.Fatalf("trial %d %s u=%d: %s first hops of %d: %d (%v), fast %d (%v)", trial, m.Name(), u,
								name, x, fh.Count(x), fh.Dist[x], fast.Count(x), fast.Dist[x])
						}
					}
					if got, _ := selectFNBP(lv, fh, directBetter(m, fh), LoopFixLiteral, nil); !slices.Equal(got, want) {
						t.Fatalf("trial %d %s u=%d: selected %v from %s first hops, %v from fast", trial, m.Name(), u, got, name, want)
					}
				}
				if got, err := (FNBP{}).Select(lv, m, w); err != nil || !slices.Equal(got, want) {
					t.Fatalf("trial %d %s u=%d: Select %v (%v), body %v", trial, m.Name(), u, got, err, want)
				}
			}
		}
	}
}

// Property: FNBP's ANS is always a subset of N1 and never larger than it.
func TestFNBPSubsetInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 20; trial++ {
		g := randomWeightedGraph(rng, 20, 0.2)
		m := metric.Bandwidth()
		w, _ := g.Weights(m.Name())
		for u := int32(0); int(u) < g.N(); u++ {
			lv := graph.NewLocalView(g, u)
			ans, err := FNBP{}.Select(lv, m, w)
			if err != nil {
				t.Fatal(err)
			}
			if len(ans) > len(lv.N1) {
				t.Fatalf("ANS larger than N1")
			}
			for _, x := range ans {
				if lv.Role(x) != graph.RoleOneHop {
					t.Fatalf("ANS member %d not a neighbor", x)
				}
			}
		}
	}
}

// Property: every target's cover assignment starts an optimal path (it is a
// member of fP(u,v)), or is the target itself when the direct link is
// optimal.
func TestFNBPCoverIsFirstHop(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 15; trial++ {
		g := randomWeightedGraph(rng, 15, 0.25)
		for _, m := range []metric.Metric{metric.Bandwidth(), metric.Delay()} {
			w, _ := g.Weights(m.Name())
			for u := int32(0); int(u) < g.N(); u++ {
				lv := graph.NewLocalView(g, u)
				sel, err := FNBP{}.SelectFull(lv, m, w)
				if err != nil {
					t.Fatal(err)
				}
				fh, err := graph.ComputeFirstHops(lv, m, w)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range lv.Targets() {
					hop, ok := sel.Cover[v]
					if !ok {
						t.Fatalf("target %d uncovered", v)
					}
					pos := lv.N1Index(hop)
					if pos < 0 || !fh.Contains(v, pos) {
						t.Fatalf("%s u=%d: cover[%d]=%d is not a first hop of an optimal path",
							m.Name(), u, v, hop)
					}
				}
			}
		}
	}
}

func TestFNBPNames(t *testing.T) {
	if (FNBP{}).Name() != "fnbp" {
		t.Error("default name")
	}
	if (FNBP{LoopFix: LoopFixOff}).Name() != "fnbp-nofix" {
		t.Error("nofix name")
	}
	if (FNBP{LoopFix: LoopFixAdjacent}).Name() != "fnbp-adjfix" {
		t.Error("adjfix name")
	}
}
