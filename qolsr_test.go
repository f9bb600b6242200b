package qolsr_test

// Tests of the public facade: everything a downstream user can reach from
// the root package, exercised together on realistic inputs.

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"qolsr"
	"qolsr/internal/paperex"
)

func TestPublicEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dep := qolsr.Deployment{
		Field:  qolsr.Field{Width: 400, Height: 400},
		Radius: 100,
		Degree: 9,
	}
	m := qolsr.Bandwidth()
	g, err := qolsr.BuildNetwork(dep, m.Name(), qolsr.DefaultInterval(), rng)
	if err != nil {
		t.Fatal(err)
	}
	w, err := g.Weights(m.Name())
	if err != nil {
		t.Fatal(err)
	}

	sets := make([][]int32, g.N())
	for u := int32(0); int(u) < g.N(); u++ {
		view := qolsr.NewLocalView(g, u)
		sets[u], err = (qolsr.FNBP{}).Select(view, m, w)
		if err != nil {
			t.Fatal(err)
		}
	}
	adv, err := qolsr.BuildAdvertised(g, sets, m.Name())
	if err != nil {
		t.Fatal(err)
	}
	if adv.M() == 0 || adv.M() > g.M() {
		t.Fatalf("advertised links = %d of %d", adv.M(), g.M())
	}
	src, dst, err := qolsr.PickConnectedPair(g, rng, 64)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := qolsr.EvaluatePair(g, adv, m, m.Name(), src, dst, qolsr.QoSOptimal)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Delivered {
		t.Fatal("FNBP advertised graph failed delivery")
	}
	if ev.Overhead < 0 {
		t.Errorf("negative overhead %v", ev.Overhead)
	}
}

func TestPublicSelectorsByName(t *testing.T) {
	for _, name := range []string{"fnbp", "topofilter", "qolsr", "full"} {
		sel, err := qolsr.SelectorByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sel.Name() == "" {
			t.Errorf("%s: empty selector name", name)
		}
	}
	for _, name := range []string{"bandwidth", "delay", "hop", "energy"} {
		if _, err := qolsr.MetricByName(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestPublicMPRSelection(t *testing.T) {
	g := qolsr.NewGraph(5)
	for _, ab := range [][2]int32{{0, 1}, {0, 2}, {1, 3}, {2, 4}} {
		if _, err := g.AddEdge(ab[0], ab[1]); err != nil {
			t.Fatal(err)
		}
	}
	view := qolsr.NewLocalView(g, 0)
	set, err := qolsr.SelectMPR(view, qolsr.MPRGreedy, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !qolsr.VerifyMPRCoverage(view, set) {
		t.Error("MPR coverage violated")
	}
	if len(set) != 2 {
		t.Errorf("MPR set = %v, want both relays", set)
	}
}

// The paper's two pathologies through the public names: on Fig. 1, with
// every link advertised, min-hop routing takes bandwidth 6 where 10 is
// possible, and on Fig. 4 FNBP without the loop-fix rule has A and B
// forward for E through each other.
func TestPublicPaperPathologies(t *testing.T) {
	m := qolsr.Bandwidth()
	f1 := paperex.Figure1()
	sets := make([][]int32, f1.G.N())
	for x := range sets {
		for _, arc := range f1.G.Arcs(int32(x)) {
			sets[x] = append(sets[x], arc.To)
		}
	}
	adv, err := qolsr.BuildAdvertised(f1.G, sets, paperex.Channel)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := qolsr.EvaluatePair(f1.G, adv, m, paperex.Channel, f1.Node("v1"), f1.Node("v3"), qolsr.MinHopThenQoS)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Achieved != 6 || ev.Hops != 2 || ev.Optimal != 10 {
		t.Errorf("fig 1 min-hop v1->v3: %v over %d hops, optimum %v; want 6 over 2, optimum 10", ev.Achieved, ev.Hops, ev.Optimal)
	}

	f4 := paperex.Figure4()
	w, err := f4.G.Weights(paperex.Channel)
	if err != nil {
		t.Fatal(err)
	}
	A, B, D, E := f4.Node("A"), f4.Node("B"), f4.Node("D"), f4.Node("E")
	cover := func(fn qolsr.FNBP, x int32) int32 {
		sel, err := fn.SelectFull(qolsr.NewLocalView(f4.G, x), m, w)
		if err != nil {
			t.Fatal(err)
		}
		return sel.Cover[E]
	}
	off := qolsr.FNBP{LoopFix: qolsr.LoopFixOff}
	if cover(off, A) != B || cover(off, B) != A {
		t.Error("fig 4 without the rule: A and B do not forward for E through each other")
	}
	if cover(qolsr.FNBP{}, A) != D {
		t.Error("fig 4 with the rule: A does not forward for E through D")
	}
}

func TestPublicProtocolStack(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	dep := qolsr.Deployment{Field: qolsr.Field{Width: 300, Height: 300}, Radius: 100, Degree: 7}
	m := qolsr.Delay()
	g, err := qolsr.BuildNetwork(dep, m.Name(), qolsr.DefaultInterval(), rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := qolsr.DefaultProtocolConfig(m)
	nw, err := qolsr.NewNetwork(g, cfg, qolsr.NetworkOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	nw.Run(20 * time.Second)
	if nw.Stats.HelloMessages == 0 {
		t.Error("no protocol traffic")
	}
	routes, err := nw.Nodes[0].Routes(nw.Engine.Now())
	if err != nil {
		t.Error(err)
	}
	again, err := nw.Nodes[0].Routes(nw.Engine.Now())
	if err != nil {
		t.Error(err)
	}
	if routes != again {
		t.Error("routing table not served from cache on an unchanged network")
	}
}

func TestPublicFigureDefinitions(t *testing.T) {
	figs := qolsr.PaperFigures()
	if len(figs) != 4 {
		t.Fatalf("figures = %d", len(figs))
	}
	smoke := qolsr.Figure{
		ID: "smoke", Title: "smoke", Metric: qolsr.Bandwidth(),
		Degrees: []float64{8}, Quantity: "set-size",
		Protocols: qolsr.PaperProtocols(),
	}
	res, err := qolsr.NewRunner(qolsr.WithRuns(1), qolsr.WithSeed(3)).Run(context.Background(), smoke)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteTables(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "smoke") {
		t.Error("table missing title")
	}
}

func TestPublicLexSelection(t *testing.T) {
	g := qolsr.NewGraph(3)
	for _, s := range []struct {
		a, b   int32
		bw, en float64
	}{{0, 1, 5, 1}, {1, 2, 5, 1}, {0, 2, 1, 1}} {
		e, err := g.AddEdge(s.a, s.b)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.SetWeight("bandwidth", e, s.bw); err != nil {
			t.Fatal(err)
		}
		if err := g.SetWeight("energy", e, s.en); err != nil {
			t.Fatal(err)
		}
	}
	lex := qolsr.Lexicographic{
		PrimaryMetric:   qolsr.Bandwidth(),
		SecondaryMetric: qolsr.Energy(),
		PrimaryWeight:   "bandwidth",
		SecondaryWeight: "energy",
	}
	ans, err := qolsr.SelectFNBPLex(qolsr.NewLocalView(g, 0), lex, qolsr.LoopFixLiteral)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || ans[0] != 1 {
		t.Errorf("lex ANS = %v, want [1] (the wide detour to 2)", ans)
	}
	gs, err := qolsr.DijkstraLex(g, lex, 0, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if gs.Cost[2].Primary != 5 {
		t.Errorf("lex route bandwidth = %v, want 5", gs.Cost[2].Primary)
	}
}

func TestPublicUniformWeights(t *testing.T) {
	g := qolsr.NewGraph(3)
	if _, err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if err := qolsr.UniformWeights(g, "x", qolsr.Interval{Lo: 2, Hi: 3}, rng); err != nil {
		t.Fatal(err)
	}
	w, err := g.Weights("x")
	if err != nil {
		t.Fatal(err)
	}
	if w[0] < 2 || w[0] > 3 {
		t.Errorf("weight %v outside [2,3]", w[0])
	}
}
