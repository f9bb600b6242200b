package core

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/mpr"
)

// Metamorphic relations of the advertised-set selectors, each exact, on 200
// seeded G(n, p) fields (n 12–23, p 0.3) at every node's local view, under
// two weight laws: integers in [1, 5], where ties are common, and
// continuous values in [1, 5), where they are not.
//
// Relation 1 (weights): a strictly increasing map of a concave weight
// (w → w² + 3 on bandwidth) and a positive scaling of an additive one
// (×2.5 on delay) leave every selector's set unchanged. A bottleneck metric
// uses only min and comparison, which any strictly increasing map keeps;
// an additive one uses sums and comparison, which scaling keeps: exactly on
// the integer law, and on the continuous one unless rounding flips a
// near-tie, which none of these views hits.
//
// Relation 2 (labels): relabelling the nodes — a seeded permutation of the
// NodeIDs, with indices, links and weights kept — leaves topofilter's set
// exactly as it was: its rule reads weights only. FNBP reads NodeIDs — it
// walks its targets in id order, skipping those already covered, breaks
// ties between equally good direct links by id, and its Fig. 4 rule
// compares the center's id with the first hops' — so its set moves on
// some views; how many is pinned per metric and law. Bottleneck values tie
// on the continuous law too, wherever two paths share their narrowest link.

// metamorphicViews is the number of local views per (metric, law): the
// fields' node counts summed.
const metamorphicViews = 3480

// fnbpRelabelled pins, per metric and law, the views whose FNBP set a
// relabelling moves.
var fnbpRelabelled = map[string]int{
	"bandwidth/integer":    499,
	"delay/integer":        128,
	"bandwidth/continuous": 97,
	"delay/continuous":     0,
}

// weightMapBroken pins, per selector, metric and law, the views whose set
// relation 1 moves. Any entry here is a finding.
var weightMapBroken = map[string]int{}

// metamorphicField draws field i: a G(n, p) graph with both weight
// channels from law, and its relabelled twin.
func metamorphicField(i int, law func(*rand.Rand) float64) (g, relabelled *graph.Graph) {
	rng := rand.New(rand.NewSource(int64(i)))
	n := 12 + rng.Intn(12)
	var ends [][2]int32
	for a := int32(0); int(a) < n; a++ {
		for b := a + 1; int(b) < n; b++ {
			if rng.Float64() < 0.3 {
				ends = append(ends, [2]int32{a, b})
			}
		}
	}
	ids := make([]graph.NodeID, n)
	for x, id := range rng.Perm(n) {
		ids[x] = graph.NodeID(1000 + id)
	}
	relabelled, err := graph.NewWithIDs(ids)
	if err != nil {
		panic(err)
	}
	g = graph.New(n)
	wrng := rand.New(rand.NewSource(int64(i) + 1e6))
	for _, e := range ends {
		bw, d := law(wrng), law(wrng)
		for _, h := range []*graph.Graph{g, relabelled} {
			k := mustAddEdge(h, e[0], e[1])
			if err := h.SetWeight("bandwidth", k, bw); err != nil {
				panic(err)
			}
			if err := h.SetWeight("delay", k, d); err != nil {
				panic(err)
			}
		}
	}
	return g, relabelled
}

func TestSelectionMetamorphic(t *testing.T) {
	laws := []struct {
		name string
		draw func(*rand.Rand) float64
	}{
		{"integer", func(rng *rand.Rand) float64 { return float64(1 + rng.Intn(5)) }},
		{"continuous", func(rng *rand.Rand) float64 { return 1 + 4*rng.Float64() }},
	}
	weightMaps := []struct {
		m  metric.Metric
		fn func(float64) float64
	}{
		{metric.Bandwidth(), func(w float64) float64 { return w*w + 3 }},
		{metric.Delay(), func(w float64) float64 { return w * 2.5 }},
	}
	selectors := []Selector{FNBP{}, TopologyFilter{}, QOLSRAdapter{Heuristic: mpr.QOLSR2}, FullAdvertise{}}
	selectSet := func(sel Selector, lv *graph.LocalView, m metric.Metric, w []float64) []int32 {
		set, err := sel.Select(lv, m, w)
		if err != nil {
			t.Fatal(err)
		}
		set = slices.Clone(set)
		slices.Sort(set)
		return set
	}

	views := map[string]int{}
	moved := map[string]int{}
	broken := map[string]int{}
	for _, law := range laws {
		for field := 0; field < 200; field++ {
			g, relabelled := metamorphicField(field, law.draw)
			for _, wm := range weightMaps {
				key := wm.m.Name() + "/" + law.name
				w, _ := g.Weights(wm.m.Name())
				mapped := make([]float64, len(w))
				for e, x := range w {
					mapped[e] = wm.fn(x)
				}
				for u := int32(0); int(u) < g.N(); u++ {
					views[key]++
					lv, lvR := graph.NewLocalView(g, u), graph.NewLocalView(relabelled, u)
					for _, sel := range selectors {
						base := selectSet(sel, lv, wm.m, w)
						if !slices.Equal(selectSet(sel, lv, wm.m, mapped), base) {
							broken[sel.Name()+"/"+key]++
						}
						same := slices.Equal(selectSet(sel, lvR, wm.m, w), base)
						switch sel.(type) {
						case TopologyFilter:
							if !same {
								t.Errorf("%s field %d u=%d: topofilter set moved under relabelling", key, field, u)
							}
						case FNBP:
							if !same {
								moved[key]++
							}
						}
					}
				}
			}
		}
	}
	for key, n := range views {
		if n != metamorphicViews {
			t.Errorf("%s: %d views, want %d", key, n, metamorphicViews)
		}
	}
	if !mapsEqual(broken, weightMapBroken) {
		t.Errorf("relation 1 broken on %v views, pinned %v", broken, weightMapBroken)
	}
	if !mapsEqual(moved, fnbpRelabelled) {
		t.Errorf("FNBP sets moved by relabelling on %v views, pinned %v", moved, fnbpRelabelled)
	}
}

// mapsEqual compares two count maps, a missing key counting 0.
func mapsEqual(a, b map[string]int) bool {
	zero := func(_ string, v int) bool { return v == 0 }
	a, b = maps.Clone(a), maps.Clone(b)
	maps.DeleteFunc(a, zero)
	maps.DeleteFunc(b, zero)
	return maps.Equal(a, b)
}
