package core

import (
	"math/rand"
	"testing"

	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/mpr"
)

func TestTopologyFilterAdvertisesSurvivingDirect(t *testing.T) {
	// Triangle where u's link to b (w=2) is dominated by u-a (5) and
	// a-b (5): the reduced view keeps u-a and a-b only, so the QANS is
	// {a} — a serves both as surviving direct link and as the detour's
	// first hop.
	g := graph.New(3) // 0=u 1=a 2=b
	type ew struct {
		a, b int32
		w    float64
	}
	for _, s := range []ew{{0, 1, 5}, {0, 2, 2}, {1, 2, 5}} {
		e := mustAddEdge(g, s.a, s.b)
		if err := g.SetWeight("bandwidth", e, s.w); err != nil {
			t.Fatal(err)
		}
	}
	lv := graph.NewLocalView(g, 0)
	w, _ := g.Weights("bandwidth")
	ans, stats, err := TopologyFilter{}.SelectWithStats(lv, metric.Bandwidth(), w)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || ans[0] != 1 {
		t.Errorf("QANS = %v, want [1]", ans)
	}
	if stats.SurvivingDirect != 1 {
		t.Errorf("SurvivingDirect = %d, want 1", stats.SurvivingDirect)
	}
}

// The paper's criticism of [7]: all tied-best first hops are advertised.
func TestTopologyFilterSelectsAllTiedFirstHops(t *testing.T) {
	// u with neighbors a,b and 2-hop target x; both u-a-x and u-b-x have
	// value 4; both a and b must be advertised.
	g := graph.New(4) // 0=u 1=a 2=b 3=x
	type ew struct {
		a, b int32
		w    float64
	}
	for _, s := range []ew{{0, 1, 4}, {0, 2, 4}, {1, 3, 4}, {2, 3, 4}} {
		e := mustAddEdge(g, s.a, s.b)
		if err := g.SetWeight("bandwidth", e, s.w); err != nil {
			t.Fatal(err)
		}
	}
	lv := graph.NewLocalView(g, 0)
	w, _ := g.Weights("bandwidth")
	ans, err := TopologyFilter{}.Select(lv, metric.Bandwidth(), w)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 {
		t.Errorf("QANS = %v, want both tied first hops", ans)
	}
	// FNBP on the same view selects just one (its defining advantage).
	fnbp, err := FNBP{}.Select(lv, metric.Bandwidth(), w)
	if err != nil {
		t.Fatal(err)
	}
	if len(fnbp) != 1 {
		t.Errorf("FNBP ANS = %v, want a single neighbor", fnbp)
	}
}

// Unlike QOLSR, topology filtering can serve a 1-hop neighbor through a
// 2-hop detour when it offers better QoS (paper Sec. II).
func TestTopologyFilterDetourForOneHopNeighbor(t *testing.T) {
	g := graph.New(3) // 0=u 1=v 2=w: direct u-v weak, u-w-v strong
	type ew struct {
		a, b int32
		w    float64
	}
	for _, s := range []ew{{0, 1, 1}, {0, 2, 9}, {2, 1, 9}} {
		e := mustAddEdge(g, s.a, s.b)
		if err := g.SetWeight("bandwidth", e, s.w); err != nil {
			t.Fatal(err)
		}
	}
	lv := graph.NewLocalView(g, 0)
	w, _ := g.Weights("bandwidth")
	ans, err := TopologyFilter{}.Select(lv, metric.Bandwidth(), w)
	if err != nil {
		t.Fatal(err)
	}
	// The weak direct link is filtered out; w is advertised (surviving
	// direct + detour first hop), v is not.
	if len(ans) != 1 || ans[0] != 2 {
		t.Errorf("QANS = %v, want [2]", ans)
	}
}

func TestTopologyFilterFallbackWhenReductionTooAggressive(t *testing.T) {
	// u-a (10), u-b (4), a-b (10), b-x (3): the reduction removes u-b
	// (witness a: both legs 10 > 4) and keeps b-x (no common neighbor of
	// b and x). The only physical 2-hop path to x, u-b-x, lost its first
	// leg, so x is unreachable within two reduced hops and is left to
	// multi-hop routing over the reduced topology.
	g := graph.New(4) // 0=u 1=a 2=b 3=x
	type ew struct {
		a, b int32
		w    float64
	}
	for _, s := range []ew{
		{0, 1, 10}, {0, 2, 4}, {1, 2, 10}, {2, 3, 3},
	} {
		e := mustAddEdge(g, s.a, s.b)
		if err := g.SetWeight("bandwidth", e, s.w); err != nil {
			t.Fatal(err)
		}
	}
	lv := graph.NewLocalView(g, 0)
	w, _ := g.Weights("bandwidth")

	// Strict [7] reading: x is left to multi-hop routing over the reduced
	// topology (u-a-b-x stays connected); only a is advertised.
	ans, stats, err := TopologyFilter{}.SelectWithStats(lv, metric.Bandwidth(), w)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FallbackTargets != 1 {
		t.Errorf("FallbackTargets = %d, want 1 (x unreachable in 2 reduced hops)", stats.FallbackTargets)
	}
	if len(ans) != 1 || ans[0] != 1 {
		t.Errorf("strict QANS = %v, want [1]", ans)
	}
}

// On random graphs the three selectors satisfy the paper's headline size
// ordering on average: |FNBP| <= |topofilter| <= |QOLSR MPR-2| does not hold
// pointwise, but FNBP must never advertise more than topology filtering
// advertises plus its own loop-fix additions; we check the weaker, exact
// invariants: determinism and neighbor-subset.
func TestTopologyFilterInvariantsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 20; trial++ {
		g := randomWeightedGraph(rng, 18, 0.25)
		for _, m := range []metric.Metric{metric.Bandwidth(), metric.Delay()} {
			w, _ := g.Weights(m.Name())
			for u := int32(0); int(u) < g.N(); u++ {
				lv := graph.NewLocalView(g, u)
				a1, err := TopologyFilter{}.Select(lv, m, w)
				if err != nil {
					t.Fatal(err)
				}
				a2, err := TopologyFilter{}.Select(lv, m, w)
				if err != nil {
					t.Fatal(err)
				}
				if len(a1) != len(a2) {
					t.Fatalf("nondeterministic selection")
				}
				for i := range a1 {
					if a1[i] != a2[i] {
						t.Fatalf("nondeterministic member")
					}
				}
				for _, x := range a1 {
					if lv.Role(x) != graph.RoleOneHop {
						t.Fatalf("non-neighbor advertised")
					}
				}
			}
		}
	}
}

func TestQOLSRAdapterAndFullAdvertise(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	g := randomWeightedGraph(rng, 15, 0.3)
	m := metric.Bandwidth()
	w, _ := g.Weights(m.Name())
	u := int32(0)
	lv := graph.NewLocalView(g, u)

	q := QOLSRAdapter{Heuristic: mpr.QOLSR2}
	ans, err := q.Select(lv, m, w)
	if err != nil {
		t.Fatal(err)
	}
	if !mpr.VerifyCoverage(lv, ans) {
		t.Error("QOLSR adapter set does not cover 2-hop neighborhood")
	}
	if q.Name() != "qolsr-qolsr-mpr2" {
		t.Errorf("Name = %q", q.Name())
	}

	full, err := FullAdvertise{}.Select(lv, m, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(lv.N1) {
		t.Errorf("full advertise size = %d, want %d", len(full), len(lv.N1))
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"qolsr", "topofilter", "fnbp", "full"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown selector accepted")
	}
}
