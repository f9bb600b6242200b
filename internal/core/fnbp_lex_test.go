package core

import (
	"math/rand"
	"reflect"
	"testing"

	"qolsr/internal/graph"
	"qolsr/internal/metric"
)

// The lexicographic FNBP under the neutral pair Lexicographic{m, m} must
// match the float64 implementation exactly.
func TestSelectFNBPLexNeutralMatchesFNBP(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 15; trial++ {
		g := randomWeightedGraph(rng, 12, 0.3)
		for _, m := range []metric.Metric{metric.Bandwidth(), metric.Delay()} {
			w, _ := g.Weights(m.Name())
			lex := metric.Lexicographic{
				PrimaryMetric: m, SecondaryMetric: m,
				PrimaryWeight: m.Name(), SecondaryWeight: m.Name(),
			}
			for u := int32(0); int(u) < g.N(); u++ {
				lv := graph.NewLocalView(g, u)
				plain, err := FNBP{}.Select(lv, m, w)
				if err != nil {
					t.Fatal(err)
				}
				gen, err := SelectFNBPLex(lv, lex, LoopFixLiteral)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(plain, gen) {
					t.Fatalf("trial %d %s u=%d: scalar %v != lex %v",
						trial, m.Name(), u, plain, gen)
				}
			}
		}
	}
}

// Multi-criterion selection (future work Sec. V): bandwidth first, energy
// as tie-break. Between two equally wide first hops, the energy-cheaper one
// must be selected.
func TestSelectFNBPLexBandwidthEnergy(t *testing.T) {
	g := graph.New(4) // 0=u, 1=a, 2=b, 3=x (2-hop target)
	type ew struct {
		a, b   int32
		bw, en float64
	}
	for _, s := range []ew{
		{0, 1, 5, 9}, {1, 3, 5, 9}, // via a: bw 5, energy 18
		{0, 2, 5, 1}, {2, 3, 5, 1}, // via b: bw 5, energy 2
	} {
		e := mustAddEdge(g, s.a, s.b)
		if err := g.SetWeight("bandwidth", e, s.bw); err != nil {
			t.Fatal(err)
		}
		if err := g.SetWeight("energy", e, s.en); err != nil {
			t.Fatal(err)
		}
	}
	lv := graph.NewLocalView(g, 0)
	lex := metric.Lexicographic{
		PrimaryMetric:   metric.Bandwidth(),
		SecondaryMetric: metric.Energy(),
		PrimaryWeight:   "bandwidth",
		SecondaryWeight: "energy",
	}
	ans, err := SelectFNBPLex(lv, lex, LoopFixLiteral)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || ans[0] != 2 {
		t.Errorf("ANS = %v, want [2] (the energy-cheap branch)", ans)
	}

	// Under pure bandwidth both branches tie and the smaller ID (a=1)
	// wins — demonstrating that the secondary criterion changed the
	// selection.
	w, _ := g.Weights("bandwidth")
	plain, err := FNBP{}.Select(lv, metric.Bandwidth(), w)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 1 || plain[0] != 1 {
		t.Errorf("bandwidth-only ANS = %v, want [1]", plain)
	}
}

func TestSelectFNBPLexMissingChannel(t *testing.T) {
	g := graph.New(2)
	e := mustAddEdge(g, 0, 1)
	if err := g.SetWeight("bandwidth", e, 1); err != nil {
		t.Fatal(err)
	}
	lv := graph.NewLocalView(g, 0)
	lex := metric.Lexicographic{
		PrimaryMetric:   metric.Bandwidth(),
		SecondaryMetric: metric.Energy(),
		PrimaryWeight:   "bandwidth",
		SecondaryWeight: "energy",
	}
	if _, err := SelectFNBPLex(lv, lex, LoopFixLiteral); err == nil {
		t.Error("missing energy channel accepted")
	}
}
