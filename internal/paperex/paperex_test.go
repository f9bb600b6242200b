package paperex

import (
	"fmt"
	"slices"
	"testing"

	"qolsr/internal/core"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/mpr"
	"qolsr/internal/route"
)

func weightsOf(t *testing.T, f *Fixture) []float64 {
	t.Helper()
	w, err := f.G.Weights(Channel)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func linkWeight(t *testing.T, f *Fixture, a, b string) float64 {
	t.Helper()
	e, ok := f.G.EdgeBetween(f.Node(a), f.Node(b))
	if !ok {
		t.Fatalf("missing edge %s-%s", a, b)
	}
	return weightsOf(t, f)[e]
}

func directWeight(t *testing.T, f *Fixture, x int32) float64 {
	t.Helper()
	e, ok := f.G.EdgeBetween(f.Node("u"), x)
	if !ok {
		t.Fatalf("no direct link u-%s", f.G.Label(x))
	}
	return weightsOf(t, f)[e]
}

func TestFixturesAreValidGraphs(t *testing.T) {
	for name, f := range map[string]*Fixture{
		"fig1": Figure1(), "fig2": Figure2(), "fig4": Figure4(), "fig5": Figure5(),
	} {
		if err := f.G.Validate(); err != nil {
			t.Errorf("%s: invalid graph: %v", name, err)
		}
		if slices.Contains(graph.Reachable(f.G, 0), false) {
			t.Errorf("%s: fixture not connected", name)
		}
		for nm, idx := range f.Nodes {
			if f.G.Label(idx) != nm {
				t.Errorf("%s: label of %q = %q", name, nm, f.G.Label(idx))
			}
			if f.Node(nm) != idx {
				t.Errorf("%s: Node(%q) inconsistent", name, nm)
			}
		}
	}
}

func TestNodePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown node name did not panic")
		}
	}()
	Figure1().Node("nope")
}

// Figure 1's stated facts: route via v2 bottlenecks at 6; the ring path
// v1-v6-v5-v4-v3 carries 10 and is the widest.
func TestFigure1Facts(t *testing.T) {
	f := Figure1()
	m := metric.Bandwidth()
	w := weightsOf(t, f)
	v1, v3 := f.Node("v1"), f.Node("v3")
	sp := graph.Dijkstra(f.G, m, w, v1, nil, -1)
	if sp.Dist[v3] != 10 {
		t.Errorf("widest v1->v3 = %v, want 10", sp.Dist[v3])
	}
	path := sp.PathTo(v3)
	if len(path) != 5 {
		t.Errorf("widest path = %d nodes, want 5 (the ring way)", len(path))
	}
	viaV2 := m.Combine(m.Combine(m.Identity(), linkWeight(t, f, "v1", "v2")), linkWeight(t, f, "v2", "v3"))
	if viaV2 != 6 {
		t.Errorf("v1-v2-v3 value = %v, want 6", viaV2)
	}
}

// Figure 2's stated facts, one by one (Sec. III of the paper).
func TestFigure2Facts(t *testing.T) {
	f := Figure2()
	m := metric.Bandwidth()
	w := weightsOf(t, f)
	u := f.Node("u")

	if linkWeight(t, f, "u", "v1") != linkWeight(t, f, "u", "v2") {
		t.Error("BW(u,v1) != BW(u,v2)")
	}
	if !(linkWeight(t, f, "u", "v5") < linkWeight(t, f, "u", "v1")) {
		t.Error("BW(u,v5) not < BW(u,v1)")
	}
	if linkWeight(t, f, "u", "v4") != 3 {
		t.Error("direct u-v4 must be 3")
	}
	if !(linkWeight(t, f, "u", "v6") > linkWeight(t, f, "u", "v2")) {
		t.Error("BW(u,v6) not > BW(u,v2)")
	}

	lv := graph.NewLocalView(f.G, u)
	fh, err := graph.ComputeFirstHops(lv, m, w)
	if err != nil {
		t.Fatal(err)
	}
	// PBW(u,v3) has value 4 with first hops {v1, v2}.
	v3 := f.Node("v3")
	if fh.Dist[v3] != 4 {
		t.Errorf("B̃W(u,v3) = %v, want 4", fh.Dist[v3])
	}
	if fh.Count(v3) != 2 || !fh.Contains(v3, lv.N1Index(f.Node("v1"))) || !fh.Contains(v3, lv.N1Index(f.Node("v2"))) {
		t.Errorf("|fP(u,v3)| = %d, want {v1,v2}", fh.Count(v3))
	}
	// u v1 v5 v4 achieves 5 > direct 3.
	v4 := f.Node("v4")
	if fh.Dist[v4] != 5 {
		t.Errorf("B̃W(u,v4) = %v, want 5", fh.Dist[v4])
	}
	if fh.Count(v4) != 1 || !fh.Contains(v4, lv.N1Index(f.Node("v1"))) {
		t.Errorf("|fP(u,v4)| = %d, want {v1}", fh.Count(v4))
	}
	// Direct link u-v7 is optimal.
	v7 := f.Node("v7")
	if !fh.Contains(v7, lv.N1Index(v7)) {
		t.Error("direct u-v7 not optimal")
	}
	// fP(u,v11) ⊇ {v2, v6} and the ≺-best member is v6 (the paper: "u
	// will choose v6 instead of v2 ... better bandwidth"). Exact equality
	// fP = {v2,v6} cannot coexist with the v3 facts under bottleneck
	// ties; see the fixture's doc comment.
	v11 := f.Node("v11")
	best := int32(-1)
	fh.ForEach(v11, func(i int32) {
		if x := lv.N1[i]; best < 0 || directWeight(t, f, x) > directWeight(t, f, best) {
			best = x
		}
	})
	if !fh.Contains(v11, lv.N1Index(f.Node("v2"))) || !fh.Contains(v11, lv.N1Index(f.Node("v6"))) {
		t.Errorf("fP(u,v11) must contain v2 and v6")
	}
	if best != f.Node("v6") {
		t.Errorf("≺-best member of fP(u,v11) = %v, want v6", f.G.Label(best))
	}
	// fP(u,v10) contains v1 and v5 (plus tie-chains; see fixture docs).
	v10 := f.Node("v10")
	if !fh.Contains(v10, lv.N1Index(f.Node("v1"))) || !fh.Contains(v10, lv.N1Index(f.Node("v5"))) {
		t.Errorf("fP(u,v10) must contain v1 and v5")
	}
}

// The (v8,v9) link is between two 2-hop neighbors and therefore invisible in
// G_u, which is the paper's localization-limit argument.
func TestFigure2HiddenLink(t *testing.T) {
	f := Figure2()
	lv := graph.NewLocalView(f.G, f.Node("u"))
	if lv.Role(f.Node("v8")) != graph.RoleTwoHop || lv.Role(f.Node("v9")) != graph.RoleTwoHop {
		t.Fatal("v8/v9 must be 2-hop neighbors")
	}
	if lv.HasViewEdge(f.Node("v8"), f.Node("v9")) {
		t.Error("link (v8,v9) visible in G_u")
	}
}

// Figure 4's stated facts: D-E is limiting (weight 1), every optimal path
// A->E bottlenecks at 1, and w(A,D) > w(A,B) so max≺ prefers D.
func TestFigure4Facts(t *testing.T) {
	f := Figure4()
	m := metric.Bandwidth()
	w := weightsOf(t, f)
	if linkWeight(t, f, "D", "E") != 1 {
		t.Error("last link D-E must be the limiting weight 1")
	}
	if !(linkWeight(t, f, "A", "D") > linkWeight(t, f, "A", "B")) {
		t.Error("w(A,D) must exceed w(A,B) for max≺ to pick D")
	}
	lv := graph.NewLocalView(f.G, f.Node("A"))
	fh, err := graph.ComputeFirstHops(lv, m, w)
	if err != nil {
		t.Fatal(err)
	}
	E := f.Node("E")
	if fh.Dist[E] != 1 {
		t.Errorf("B̃W(A,E) = %v, want 1", fh.Dist[E])
	}
	if fh.Count(E) != 2 || !fh.Contains(E, lv.N1Index(f.Node("B"))) || !fh.Contains(E, lv.N1Index(f.Node("D"))) {
		t.Errorf("|fP(A,E)| = %d, want {B,D}", fh.Count(E))
	}
	// E's only neighbor is D.
	if f.G.Degree(E) != 1 {
		t.Error("E must have D as its only access")
	}
}

// Figure 5's three sets at u, smallest last: the QoS-blind MPR set, the
// topology-filtered ANS and the FNBP ANS.
func TestFigure5Facts(t *testing.T) {
	f := Figure5()
	m := metric.Bandwidth()
	w := weightsOf(t, f)
	view := graph.NewLocalView(f.G, f.Node("u"))
	mprs, err := mpr.Select(view, mpr.Greedy, m, w)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := core.TopologyFilter{}.Select(view, m, w)
	if err != nil {
		t.Fatal(err)
	}
	fnbp, err := core.FNBP{}.Select(view, m, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  []int32
		want string
	}{
		{"MPR set", mprs, "[a b d]"},
		{"topology-filtered ANS", tf, "[a d]"},
		{"FNBP ANS", fnbp, "[d]"},
	} {
		labels := make([]string, len(c.got))
		for i, x := range c.got {
			labels[i] = f.G.Label(x)
		}
		if got := fmt.Sprint(labels); got != c.want {
			t.Errorf("%s of u = %s, want %s", c.name, got, c.want)
		}
	}
}

// fnbpSets runs FNBP at every node of f under loopFix and returns each
// node's advertised set.
func fnbpSets(t *testing.T, f *Fixture, loopFix core.LoopFixMode) ([][]int32, []core.Stats) {
	t.Helper()
	sets, stats := make([][]int32, f.G.N()), make([]core.Stats, f.G.N())
	for u := range sets {
		sel, err := core.FNBP{LoopFix: loopFix}.SelectFull(graph.NewLocalView(f.G, int32(u)), metric.Bandwidth(), weightsOf(t, f))
		if err != nil {
			t.Fatal(err)
		}
		sets[u], stats[u] = sel.ANS, sel.Stats
	}
	return sets, stats
}

// reaches reports whether src reaches dst in g under bandwidth.
func reaches(t *testing.T, g *graph.Graph, src, dst int32) bool {
	t.Helper()
	w, err := g.Weights(Channel)
	if err != nil {
		t.Fatal(err)
	}
	return graph.Dijkstra(g, metric.Bandwidth(), w, src, nil, -1).Reachable(dst)
}

// withLinks returns adv plus every physical link of the given nodes.
func withLinks(t *testing.T, adv *graph.Graph, f *Fixture, nodes ...int32) *graph.Graph {
	t.Helper()
	for _, x := range nodes {
		var err error
		if adv, err = route.WithLocalLinks(adv, f.G, Channel, x); err != nil {
			t.Fatal(err)
		}
	}
	return adv
}

// FNBP's tie gap, witnessed: the path 4–0–1 plus the triangle 1–2–3, width
// 2 on 2–3 and 1 on every other link. Step 1 skips a 1-hop target whose
// direct link is among its optimal paths, ties included: node 1 skips 2 and
// 3 (each also reached at width 1 through the other), and 2 and 3 skip 1
// (reached at width 1 through the other end). So no node advertises 1–2 or
// 1–3, and node 4, whose live view is its own links, its neighbour's HELLO
// links and the advertised links, reaches neither 2 nor 3. The Fig. 4 rule
// is a step-2 rule, and here it only re-selects what step 2 chose, so every
// LoopFix mode selects the same sets.
func TestFNBPTieGapTriangle(t *testing.T) {
	f := build([]string{"0", "1", "2", "3", "4"}, []edgeSpec{
		{"4", "0", 1}, {"0", "1", 1}, {"1", "2", 1}, {"1", "3", 1}, {"2", "3", 2},
	})
	want := [][]int32{{1}, {0}, {3}, {2}, {0}}
	for _, fix := range []core.LoopFixMode{core.LoopFixLiteral, core.LoopFixAdjacent, core.LoopFixOff} {
		sets, stats := fnbpSets(t, f, fix)
		if fmt.Sprint(sets) != fmt.Sprint(want) {
			t.Fatalf("LoopFix %d: sets %v, want %v", fix, sets, want)
		}
		// Node 1's direct links are all optimal, 1–2 and 1–3 on a tie;
		// 2 and 3 each keep their direct link to 1 on a tie too.
		for u, n := range map[int32]int{1: 3, 2: 2, 3: 2} {
			if stats[u].Step1DirectOptimal != n || stats[u].Step1Selected != 0 {
				t.Errorf("LoopFix %d node %d: step 1 %+v, want %d direct-optimal skips and no selection", fix, u, stats[u], n)
			}
		}
		adv, err := route.BuildAdvertised(f.G, sets, Channel)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range [][2]int32{{1, 2}, {1, 3}} {
			if _, ok := adv.EdgeBetween(l[0], l[1]); ok {
				t.Errorf("LoopFix %d: link %d–%d is advertised", fix, l[0], l[1])
			}
		}
		live := withLinks(t, adv, f, 4, 0)
		for _, dst := range []int32{2, 3} {
			if reaches(t, live, 4, dst) {
				t.Errorf("LoopFix %d: node 4's live view reaches %d", fix, dst)
			}
		}
	}
}

// The same gap on fig 8's 4-node star: centre 0 linked to 1, 2 and 3, width
// 2 on 1–2 and 1 elsewhere. The centre's links all tie, so it advertises
// nothing, and 1→3 has no path under fig 8's pair rule (the advertised graph
// plus the destination's links). With the source's own links added the pair
// is delivered.
func TestFNBPTieGapFig8Star(t *testing.T) {
	f := build([]string{"0", "1", "2", "3"}, []edgeSpec{{"0", "1", 1}, {"0", "2", 1}, {"0", "3", 1}, {"1", "2", 2}})
	sets, _ := fnbpSets(t, f, core.LoopFixLiteral)
	if want := [][]int32{{}, {2}, {1}, {0}}; fmt.Sprint(sets) != fmt.Sprint(want) {
		t.Fatalf("sets %v, want %v", sets, want)
	}
	adv, err := route.BuildAdvertised(f.G, sets, Channel)
	if err != nil {
		t.Fatal(err)
	}
	pair := withLinks(t, adv, f, 3)
	if reaches(t, pair, 1, 3) {
		t.Error("1→3 has a path over the advertised graph plus the destination's links")
	}
	if !reaches(t, withLinks(t, pair, f, 1), 1, 3) {
		t.Error("1→3 is not delivered with the source's links added")
	}
}
