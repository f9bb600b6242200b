package core

import (
	"math/rand"
	"testing"

	"qolsr/internal/geom"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/netgen"
)

// BenchmarkFNBPReference measures the selection body fed by the
// definition-level first hops, graph.FirstHopsReference (ablation A3, slow
// side), on the field the root BenchmarkFNBPFast measures the fast side on:
// 600 × 600, R = 100, degree 15, seed 42.
func BenchmarkFNBPReference(b *testing.B) {
	for _, m := range []metric.Metric{metric.Bandwidth(), metric.Delay()} {
		b.Run(m.Name(), func(b *testing.B) {
			dep := geom.Deployment{Field: geom.Field{Width: 600, Height: 600}, Radius: 100, Degree: 15}
			g, err := netgen.Build(dep, m.Name(), metric.DefaultInterval(), rand.New(rand.NewSource(42)))
			if err != nil {
				b.Fatal(err)
			}
			w, err := g.Weights(m.Name())
			if err != nil {
				b.Fatal(err)
			}
			views := make([]*graph.LocalView, g.N())
			for u := range views {
				views[u] = graph.NewLocalView(g, int32(u))
			}
			for b.Loop() {
				for _, lv := range views {
					fh := graph.FirstHopsReference(lv, m, w)
					selectFNBP(lv, fh, directBetter(m, fh), LoopFixLiteral, nil)
				}
			}
		})
	}
}
