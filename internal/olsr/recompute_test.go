package olsr

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"qolsr/internal/core"
	"qolsr/internal/geom"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/netgen"
)

// paperField deploys the paper's field at the given mean degree as one
// NewNodes field on cfg, member x carrying id x, and returns it with the
// graph and its weights.
func paperField(tb testing.TB, cfg Config, degree int, seed int64) ([]*Node, *graph.Graph, []float64) {
	tb.Helper()
	m := cfg.Metric
	rng := rand.New(rand.NewSource(seed))
	g, err := netgen.Build(geom.PaperDeployment(float64(degree)), m.Name(), metric.DefaultInterval(), rng)
	if err != nil {
		tb.Fatal(err)
	}
	w, err := g.Weights(m.Name())
	if err != nil {
		tb.Fatal(err)
	}
	ids := make([]int64, g.N())
	for i := range ids {
		ids[i] = int64(i)
	}
	field, err := NewNodes(ids, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return field, g, w
}

// convergedField deploys the paper's field at the given mean degree on cfg,
// feeds every node its links and runs two HELLO rounds, so every member
// knows its two-hop neighbourhood. It returns a member of exactly that
// degree with one of its neighbours and the link's weight.
func convergedField(tb testing.TB, cfg Config, degree int) (nd *Node, neighbor int64, weight float64, now time.Duration) {
	tb.Helper()
	field, g, w := paperField(tb, cfg, degree, 14)
	for x, n := range field {
		for _, arc := range g.Arcs(int32(x)) {
			n.UpdateLink(int64(arc.To), w[arc.Edge], now)
		}
	}
	for round := 0; round < 2; round++ {
		now += time.Second
		for x, n := range field {
			h := n.GenerateHello(now)
			for _, arc := range g.Arcs(int32(x)) {
				field[arc.To].HandleHello(h, now)
			}
		}
	}
	for x, n := range field {
		if arcs := g.Arcs(int32(x)); len(arcs) == degree {
			return n, int64(arcs[0].To), w[arcs[0].Edge], now
		}
	}
	tb.Fatalf("no node of degree %d among %d", degree, g.N())
	return nil, 0, 0, 0
}

var recomputeSink []int64

// flipAndSelect is the cycle the ceiling and the benchmark measure: change
// one own-link weight, which invalidates the selection, and ask for the ANS,
// which rebuilds the local view and re-runs MPR and FNBP selection on it.
func flipAndSelect(nd *Node, neighbor int64, weight float64, now time.Duration) func() {
	flip := 0
	return func() {
		flip ^= 1
		nd.UpdateLink(neighbor, weight+float64(flip), now)
		recomputeSink = nd.ANS(now)
	}
}

// A recompute allocates its results and nothing else: the two selectors'
// index slices and the identifier sets that changed (ANS hands out the set
// it holds). The view, the first-hop sets, the reduced view and every
// working buffer live in the field's scratch.
func TestRecomputeAllocs(t *testing.T) {
	tf := DefaultConfig(metric.Bandwidth())
	tf.Selector = core.TopologyFilter{}
	for _, cfg := range []Config{DefaultConfig(metric.Bandwidth()), DefaultConfig(metric.Delay()), tf} {
		name := cfg.Selector.Name() + " " + cfg.Metric.Name()
		nd, neighbor, weight, now := convergedField(t, cfg, 14)
		run := flipAndSelect(nd, neighbor, weight, now)
		run()
		before := nd.RebuildStats().Selections
		allocs := testing.AllocsPerRun(200, run)
		if ran := nd.RebuildStats().Selections - before; ran < 200 {
			t.Fatalf("%s: %d selections over 200 flips: the cycle does not recompute", name, ran)
		}
		if lv, _ := nd.buildLocalView(); len(lv.N1) != 14 || len(lv.N2) == 0 {
			t.Fatalf("%s: view has %d neighbours and %d two-hop neighbours, want a degree-14 two-hop view", name, len(lv.N1), len(lv.N2))
		}
		t.Logf("%s: %.1f allocations per recompute", name, allocs)
		if ceiling := recomputeAllocCeiling(); allocs > ceiling {
			t.Errorf("%s: %.1f allocations per recompute, ceiling %.0f", name, allocs, ceiling)
		}
	}
}

// recomputeAllocCeiling is the bound on one recompute's allocations: 2
// today, so one more fails.
func recomputeAllocCeiling() float64 {
	if raceEnabled {
		return 8 // 6–7 measured under the detector
	}
	return 3
}

// countingSelector counts the selections it hands to the wrapped selector.
type countingSelector struct {
	core.Selector
	calls *int
}

func (c countingSelector) Select(view *graph.LocalView, m metric.Metric, w []float64) ([]int32, error) {
	*c.calls++
	return c.Selector.Select(view, m, w)
}

// freshANS selects nd's ANS from scratch on its current local view.
func freshANS(t *testing.T, nd *Node) []int64 {
	t.Helper()
	view, w := nd.buildLocalView()
	if view == nil {
		return nil
	}
	sel, err := core.FNBP{}.Select(view, nd.cfg.Metric, w)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, len(sel))
	for i, x := range sel {
		ids[i] = int64(view.G.ID(x))
	}
	return ids
}

// The ANS is selected when a TC or an ANS query reads it, never for a HELLO,
// and what is read is always the set a from-scratch selection gives: on a
// field whose links flap and change weight every second, HELLOs never reach
// the selector, every TC and ANS equals freshANS, one origin's TCs with one
// ANSN carry one set and a changed set comes with a newer ANSN, and a flip of
// one link weight costs one selection within the allocation ceiling.
func TestANSSelectedOnDemand(t *testing.T) {
	calls := 0
	cfg := DefaultConfig(metric.Bandwidth())
	cfg.Selector = countingSelector{core.FNBP{}, &calls}
	field, g, w := paperField(t, cfg, 10, 37)
	rng := rand.New(rand.NewSource(37))
	down := make([]bool, g.M())
	type sent struct {
		ansn uint16
		set  []int64
	}
	last := map[int64]sent{}
	var now time.Duration
	var tcs, changed int
	for round := 0; round < 60; round++ {
		now += time.Second
		for e := range down {
			if rng.Intn(40) == 0 {
				down[e] = !down[e]
			}
			if rng.Intn(60) == 0 {
				w[e] = float64(1 + rng.Intn(10))
			}
			if a, b := g.EdgeEndpoints(e); !down[e] {
				field[a].UpdateLink(int64(b), w[e], now)
				field[b].UpdateLink(int64(a), w[e], now)
			}
		}
		for x, nd := range field {
			before := calls
			h := nd.GenerateHello(now)
			if calls != before {
				t.Fatalf("round %d: node %d's HELLO ran the ANS selector", round, x)
			}
			for _, arc := range g.Arcs(int32(x)) {
				if !down[arc.Edge] {
					field[arc.To].HandleHello(h, now)
				}
			}
		}
		for _, nd := range field {
			switch rng.Intn(3) {
			case 0:
				if got, want := nd.ANS(now), freshANS(t, nd); !slices.Equal(got, want) {
					t.Fatalf("round %d: node %d ANS %v, fresh selection %v", round, nd.ID, got, want)
				}
			case 1:
				tc, _, _ := nd.GenerateTCUpdate(now)
				want := freshANS(t, nd)
				var set []int64
				if tc != nil {
					for _, l := range tc.Links {
						set = append(set, l.Neighbor)
					}
				}
				if !slices.Equal(set, want) {
					t.Fatalf("round %d: node %d TC carries %v, fresh selection %v", round, nd.ID, set, want)
				}
				if tc == nil {
					continue
				}
				tcs++
				// A newer ANSN for every changed set is also one ANSN for
				// one set.
				if prev, ok := last[nd.ID]; ok && !slices.Equal(prev.set, set) {
					if !ansnNewer(tc.ANSN, prev.ansn) {
						t.Fatalf("round %d: node %d went from %v under ANSN %d to %v under %d", round, nd.ID, prev.set, prev.ansn, set, tc.ANSN)
					}
					changed++
				}
				last[nd.ID] = sent{tc.ANSN, set}
			}
		}
	}
	var selections uint64
	for _, nd := range field {
		selections += nd.RebuildStats().Selections
	}
	t.Logf("%d MPR selections, %d ANS selections, %d TCs, %d carried a changed set", selections, calls, tcs, changed)
	if uint64(calls) >= selections || changed < 50 {
		t.Fatalf("%d ANS selections for %d MPR selections, %d changed TCs: the field does not churn enough to tell", calls, selections, changed)
	}

	nd, neighbor, weight, now := convergedField(t, cfg, 14)
	run := flipAndSelect(nd, neighbor, weight, now)
	run()
	before := calls
	allocs := testing.AllocsPerRun(200, run)
	if ran := calls - before; ran != 201 {
		t.Errorf("%d ANS selections over 201 flips, want one each", ran)
	}
	if ceiling := recomputeAllocCeiling(); allocs > ceiling {
		t.Errorf("%.1f allocations per recompute, ceiling %.0f", allocs, ceiling)
	}
}

// StateSize().Advertised reads the ANS the node holds and selects nothing:
// it is 0 before the first TC, the size of each TC's set right after it,
// and unchanged after the neighbourhood moves, with no selection run and no
// ANSN step until the next TC.
func TestAdvertisedReadsHeldSet(t *testing.T) {
	calls := 0
	cfg := DefaultConfig(metric.Bandwidth())
	cfg.Selector = countingSelector{core.FNBP{}, &calls}
	nd, neighbor, weight, now := convergedField(t, cfg, 14)
	if got := nd.StateSize().Advertised; got != 0 || calls != 0 {
		t.Fatalf("before any TC: Advertised %d after %d selections, want 0 after none", got, calls)
	}
	for flip := 1; flip <= 20; flip++ {
		want := 0
		if tc := nd.GenerateTC(now); tc != nil {
			want = len(tc.Links)
		}
		if got := nd.StateSize().Advertised; got != want || want == 0 {
			t.Fatalf("flip %d: Advertised %d right after a TC of %d links", flip, got, want)
		}
		ansn, before := nd.ansn, calls
		nd.UpdateLink(neighbor, weight+float64(flip), now)
		if got := nd.StateSize().Advertised; got != want || calls != before || nd.ansn != ansn {
			t.Fatalf("flip %d: a read after the change gave %d (held %d), ran %d selections, moved the ANSN %d -> %d",
				flip, got, want, calls-before, ansn, nd.ansn)
		}
	}
}

func BenchmarkRecompute(b *testing.B) {
	nd, neighbor, weight, now := convergedField(b, DefaultConfig(metric.Bandwidth()), 14)
	run := flipAndSelect(nd, neighbor, weight, now)
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
