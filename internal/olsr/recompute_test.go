package olsr

import (
	"math/rand"
	"testing"
	"time"

	"qolsr/internal/geom"
	"qolsr/internal/metric"
	"qolsr/internal/netgen"
)

// convergedField deploys the paper's field at the given mean degree as one
// NewNodes field, feeds every node its links and runs two HELLO rounds, so
// every member knows its two-hop neighbourhood. It returns a member of
// exactly that degree with one of its neighbours and the link's weight.
func convergedField(tb testing.TB, m metric.Metric, degree int) (nd *Node, neighbor int64, weight float64, now time.Duration) {
	tb.Helper()
	rng := rand.New(rand.NewSource(14))
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
	field, err := NewNodes(ids, DefaultConfig(m))
	if err != nil {
		tb.Fatal(err)
	}
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
// index slices, the identifier sets that changed, and ANS's copy. The view,
// the first-hop sets and every working buffer live in the field's scratch.
func TestRecomputeAllocs(t *testing.T) {
	for _, m := range []metric.Metric{metric.Bandwidth(), metric.Delay()} {
		nd, neighbor, weight, now := convergedField(t, m, 14)
		run := flipAndSelect(nd, neighbor, weight, now)
		run()
		before := nd.RebuildStats().Selections
		allocs := testing.AllocsPerRun(200, run)
		if ran := nd.RebuildStats().Selections - before; ran < 200 {
			t.Fatalf("%s: %d selections over 200 flips: the cycle does not recompute", m.Name(), ran)
		}
		if lv, _ := nd.buildLocalView(); len(lv.N1) != 14 || len(lv.N2) == 0 {
			t.Fatalf("%s: view has %d neighbours and %d two-hop neighbours, want a degree-14 two-hop view", m.Name(), len(lv.N1), len(lv.N2))
		}
		t.Logf("%s: %.1f allocations per recompute", m.Name(), allocs)
		ceiling := 4.0 // 3 today: one more allocation per recompute fails
		if raceEnabled {
			ceiling = 8 // 6–7 measured under the detector
		}
		if allocs > ceiling {
			t.Errorf("%s: %.1f allocations per recompute, ceiling %.0f", m.Name(), allocs, ceiling)
		}
	}
}

func BenchmarkRecompute(b *testing.B) {
	nd, neighbor, weight, now := convergedField(b, metric.Bandwidth(), 14)
	run := flipAndSelect(nd, neighbor, weight, now)
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
