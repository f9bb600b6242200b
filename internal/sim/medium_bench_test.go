package sim

import (
	"math/rand"
	"testing"
	"time"

	"qolsr/internal/geom"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/netgen"
	"qolsr/internal/olsr"
)

// benchField builds the benchmark deployment once (~60 nodes at degree 8 on
// a 450×450 field).
func benchField(b *testing.B) *graph.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(17))
	dep := geom.Deployment{Field: geom.Field{Width: 450, Height: 450}, Radius: 100, Degree: 8}
	g, err := netgen.Build(dep, "bandwidth", metric.DefaultInterval(), rng)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchMedium runs the full protocol stack for 60 virtual seconds over the
// given medium and finishes with a delivery sweep — the end-to-end cost of
// one live-stack simulation, which is what the medium layer adds overhead
// to.
func benchMedium(b *testing.B, mk func() Medium, measured bool) {
	g := benchField(b)
	cfg := olsr.DefaultConfig(metric.Bandwidth())
	if measured {
		cfg.LinkSensing = olsr.SenseDelivery
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw, err := NewNetwork(g, cfg, NetworkOptions{Seed: 5, Medium: mk()})
		if err != nil {
			b.Fatal(err)
		}
		nw.Start()
		nw.Run(60 * time.Second)
		_, _ = nw.DeliverySweep(0)
	}
}

// BenchmarkIdealMedium is the baseline: the same program on the ideal MAC.
func BenchmarkIdealMedium(b *testing.B) {
	benchMedium(b, func() Medium { return NewIdealMedium(0) }, false)
}

// BenchmarkLossyMedium is the headline medium-layer number. "stack" is the
// full stack over the lossy radio (20% loss, queueing, jitter) with measured
// link quality enabled — every frame draws loss and jitter, every HELLO
// feeds the estimators. Track it against BenchmarkIdealMedium; the recorded
// end-to-end counterpart is the traffic-lossy / traffic-ideal pair in
// cmd/qolsr-bench/baseline.json. "broadcast-deg11" is PlanFrame alone, one
// whole-neighbourhood broadcast per iteration at the traffic workloads'
// mean degree: the edge cursor and the per-frame key prefix, per frame.
func BenchmarkLossyMedium(b *testing.B) {
	b.Run("stack", func(b *testing.B) {
		benchMedium(b, func() Medium {
			return NewLossyMedium(LossyConfig{Loss: 0.2, Seed: 3})
		}, true)
	})
	b.Run("broadcast-deg11", func(b *testing.B) {
		// A circulant graph: every node has exactly 11 neighbours.
		const n = 64
		g := graph.New(n)
		for i := int32(0); i < n; i++ {
			for d := int32(1); d <= 5; d++ {
				mustAddEdge(g, i, (i+d)%n)
			}
			if i < n/2 {
				mustAddEdge(g, i, i+n/2)
			}
		}
		if err := g.AssignUniformWeights(bandwidthChannel, metric.DefaultInterval(), rand.New(rand.NewSource(17))); err != nil {
			b.Fatal(err)
		}
		lm := NewLossyMedium(LossyConfig{Loss: 0.05, Seed: 3})
		lm.Attach(&Network{Phys: g})
		dsts := make([][]int32, n)
		for i := range dsts {
			for _, arc := range g.Arcs(int32(i)) {
				dsts[i] = append(dsts[i], arc.To)
			}
		}
		received := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src := i % n
			received += len(lm.PlanFrame(int32(src), dsts[src], 300, time.Duration(i)*time.Millisecond))
		}
		b.ReportMetric(float64(received)/float64(b.N), "receptions/frame")
	})
}
