package graph

import (
	"math"
	"math/rand"
	"testing"

	"qolsr/internal/metric"
)

// unitDiskRows draws the link tables a node in the middle of a unit-disk
// field of the given mean degree holds: its own row and one per neighbour,
// weights on `levels` integer levels (sim.PairWeight's law is ten).
func unitDiskRows(rng *rand.Rand, nodes int, degree float64, levels int) (center NodeID, rows []linkRow) {
	xs, ys := make([]float64, nodes), make([]float64, nodes)
	mid, best := 0, math.Inf(1)
	for i := range xs {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
		if d := math.Hypot(xs[i]-0.5, ys[i]-0.5); d < best {
			mid, best = i, d
		}
	}
	r2 := degree / (float64(nodes) * math.Pi)
	weight := make(map[[2]int]float64)
	row := func(a int) linkRow {
		r := linkRow{from: NodeID(a)}
		for b := range xs {
			dx, dy := xs[a]-xs[b], ys[a]-ys[b]
			if a == b || dx*dx+dy*dy > r2 {
				continue
			}
			key := [2]int{min(a, b), max(a, b)}
			if _, ok := weight[key]; !ok {
				weight[key] = float64(1 + rng.Intn(levels))
			}
			r.to = append(r.to, NodeID(b))
			r.w = append(r.w, weight[key])
		}
		return r
	}
	rows = append(rows, row(mid))
	for _, nb := range rows[0].to {
		rows = append(rows, row(int(nb)))
	}
	return NodeID(mid), rows
}

// The concave kernel alone, as olsr.recompute runs it: on a degree-14 two-hop
// view laid out in a warm ViewScratch, ten-level weights. The root
// BenchmarkFirstHops times NewLocalView views instead, a scratch per call.
func BenchmarkFirstHopsConcave(b *testing.B) {
	center, rows := unitDiskRows(rand.New(rand.NewSource(22)), 400, 14, 10)
	var s ViewScratch
	lv, w := scratchView(&s, center, nil, rows, "bandwidth")
	m := metric.Bandwidth()
	if _, err := ComputeFirstHops(lv, m, w); err != nil { // warm the scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeFirstHops(lv, m, w); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(lv.N1)), "n1")
	b.ReportMetric(float64(len(lv.N2)), "n2")
}
