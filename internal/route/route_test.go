package route

import (
	"math"
	"testing"

	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/paperex"
)

// figure1Sets returns per-node advertised sets for the Fig. 1 ring under
// the original OLSR/QOLSR behaviour: in the 6-cycle every node must select
// both neighbors (each uniquely covers a 2-hop neighbor), so the advertised
// topology is the full ring.
func figure1Sets(f *paperex.Fixture) [][]int32 {
	sets := make([][]int32, f.G.N())
	for x := int32(0); int(x) < f.G.N(); x++ {
		for _, arc := range f.G.Arcs(x) {
			sets[x] = append(sets[x], arc.To)
		}
	}
	return sets
}

// TestFigure1QOLSRMissesWidestPath reproduces the paper's Fig. 1 claim: the
// QOLSR route v1->v3 goes through v2 at bandwidth 6 although the widest path
// v1-v6-v5-v4-v3 of bandwidth 10 exists; an unrestricted QoS-optimal policy
// over the same links finds 10.
func TestFigure1QOLSRMissesWidestPath(t *testing.T) {
	f := paperex.Figure1()
	m := metric.Bandwidth()
	adv, err := BuildAdvertised(f.G, figure1Sets(f), paperex.Channel)
	if err != nil {
		t.Fatal(err)
	}
	v1, v3 := f.Node("v1"), f.Node("v3")

	qolsr, err := EvaluatePair(f.G, adv, m, paperex.Channel, v1, v3, MinHopThenQoS)
	if err != nil {
		t.Fatal(err)
	}
	if !qolsr.Delivered {
		t.Fatal("QOLSR did not deliver")
	}
	if qolsr.Achieved != 6 || qolsr.Hops != 2 {
		t.Errorf("QOLSR route = bw %v over %d hops, want 6 over 2 (via v2)", qolsr.Achieved, qolsr.Hops)
	}
	if qolsr.Optimal != 10 {
		t.Errorf("optimal = %v, want 10", qolsr.Optimal)
	}
	if math.Abs(qolsr.Overhead-0.4) > 1e-12 {
		t.Errorf("overhead = %v, want 0.4", qolsr.Overhead)
	}

	free, err := EvaluatePair(f.G, adv, m, paperex.Channel, v1, v3, QoSOptimal)
	if err != nil {
		t.Fatal(err)
	}
	if free.Achieved != 10 || free.Overhead != 0 || free.Hops != 4 {
		t.Errorf("QoS-optimal route = bw %v over %d hops, want 10 over 4", free.Achieved, free.Hops)
	}
}

func TestBuildAdvertisedDeduplicatesAndValidates(t *testing.T) {
	g := graph.New(3)
	e01 := mustAddEdge(g, 0, 1)
	e12 := mustAddEdge(g, 1, 2)
	if err := g.SetWeight("delay", e01, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.SetWeight("delay", e12, 2); err != nil {
		t.Fatal(err)
	}
	// 0 and 1 both advertise each other: one edge results.
	adv, err := BuildAdvertised(g, [][]int32{{1}, {0, 2}, {}}, "delay")
	if err != nil {
		t.Fatal(err)
	}
	if adv.M() != 2 {
		t.Errorf("advertised edges = %d, want 2", adv.M())
	}
	aw, _ := adv.Weights("delay")
	e, ok := adv.EdgeBetween(1, 2)
	if !ok || aw[e] != 2 {
		t.Error("advertised weight not copied")
	}
	// Advertising a non-neighbor is an error.
	if _, err := BuildAdvertised(g, [][]int32{{2}, {}, {}}, "delay"); err == nil {
		t.Error("non-neighbor advertisement accepted")
	}
	// Set count must match node count.
	if _, err := BuildAdvertised(g, [][]int32{{}}, "delay"); err == nil {
		t.Error("mismatched set count accepted")
	}
	if _, err := BuildAdvertised(g, [][]int32{{}, {}, {}}, "nope"); err == nil {
		t.Error("unknown channel accepted")
	}
}

func TestWithLocalLinks(t *testing.T) {
	g := graph.New(3)
	for _, ab := range [][2]int32{{0, 1}, {1, 2}} {
		e := mustAddEdge(g, ab[0], ab[1])
		if err := g.SetWeight("delay", e, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing advertised: 2 unreachable from 0.
	adv, err := BuildAdvertised(g, [][]int32{{}, {2}, {}}, "delay")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := EvaluatePair(g, adv, metric.Delay(), "delay", 0, 2, QoSOptimal)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Delivered {
		t.Fatal("unexpected delivery without local links")
	}
	aug, err := WithLocalLinks(adv, g, "delay", 0)
	if err != nil {
		t.Fatal(err)
	}
	ev, err = EvaluatePair(g, aug, metric.Delay(), "delay", 0, 2, QoSOptimal)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Delivered || ev.Achieved != 2 {
		t.Errorf("with local links: delivered=%v achieved=%v, want true/2", ev.Delivered, ev.Achieved)
	}
	// Augmentation must not mutate the original advertised graph.
	if adv.M() != 1 {
		t.Errorf("original advertised graph mutated: M=%d", adv.M())
	}
}

func TestEvaluatePairDisconnectedPhysical(t *testing.T) {
	g := graph.New(2) // no edges at all
	adv, err := BuildAdvertised(g, [][]int32{{}, {}}, "delay")
	if err == nil {
		// Channel does not exist on an edgeless graph; create it first.
		_ = adv
	}
	g2 := graph.New(3)
	e := mustAddEdge(g2, 0, 1)
	if err := g2.SetWeight("delay", e, 1); err != nil {
		t.Fatal(err)
	}
	adv2, err := BuildAdvertised(g2, [][]int32{{1}, {}, {}}, "delay")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluatePair(g2, adv2, metric.Delay(), "delay", 0, 2, QoSOptimal); err == nil {
		t.Error("physically disconnected pair accepted")
	}
}

func TestOverheadFormulas(t *testing.T) {
	// Bandwidth: (b*-b)/b*.
	if got := Overhead(metric.Bandwidth(), 6, 10); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("bandwidth overhead = %v, want 0.4", got)
	}
	if got := Overhead(metric.Bandwidth(), 10, 10); got != 0 {
		t.Errorf("optimal bandwidth overhead = %v, want 0", got)
	}
	// Delay: (d-d*)/d*.
	if got := Overhead(metric.Delay(), 12, 10); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("delay overhead = %v, want 0.2", got)
	}
	if got := Overhead(metric.Delay(), 10, 10); got != 0 {
		t.Errorf("optimal delay overhead = %v, want 0", got)
	}
	if got := Overhead(metric.Delay(), 5, 0); got != 0 {
		t.Errorf("zero-optimal guard = %v", got)
	}
}

func TestPolicyString(t *testing.T) {
	if QoSOptimal.String() != "qos-optimal" || MinHopThenQoS.String() != "minhop-then-qos" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Error("unknown policy name wrong")
	}
	g := graph.New(2)
	e := mustAddEdge(g, 0, 1)
	if err := g.SetWeight("delay", e, 1); err != nil {
		t.Fatal(err)
	}
	adv, err := BuildAdvertised(g, [][]int32{{1}, {}}, "delay")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluatePair(g, adv, metric.Delay(), "delay", 0, 1, Policy(9)); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestForward(t *testing.T) {
	// Static next-hop table over 0-1-2-3.
	table := map[int32]int32{0: 1, 1: 2, 2: 3}
	next := func(at, dst int32) int32 {
		if nx, ok := table[at]; ok {
			return nx
		}
		return -1
	}
	path, ok := Forward(next, 0, 3, 10)
	if !ok || len(path) != 4 {
		t.Errorf("path = %v ok=%v", path, ok)
	}
	// Loop: 0->1->0->...
	loop := func(at, dst int32) int32 {
		if at == 0 {
			return 1
		}
		return 0
	}
	if _, ok := Forward(loop, 0, 3, 8); ok {
		t.Error("loop reported as delivered")
	}
	// No route.
	if path, ok := Forward(func(at, dst int32) int32 { return -1 }, 0, 3, 8); ok || len(path) != 1 {
		t.Errorf("no-route path = %v ok=%v", path, ok)
	}
	// Already at destination.
	if path, ok := Forward(next, 3, 3, 8); !ok || len(path) != 1 {
		t.Errorf("self-delivery path = %v ok=%v", path, ok)
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
