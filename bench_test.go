package qolsr_test

// The benchmarks in this file regenerate the paper's tables/figures at
// reduced run counts (benchmarks are for shape and speed tracking; use
// cmd/qolsr-sim for full 100-run reproductions) and measure the hot
// algorithms in isolation.
//
// Figure benches report the measured series via b.ReportMetric, so
// `go test -bench Figure -benchmem` prints the same quantities the paper
// plots.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"qolsr"
	"qolsr/internal/olsr"
	"qolsr/internal/sim"
)

// benchFigure runs a reduced version of a paper figure once per iteration
// on a Runner and reports the last result's series.
func benchFigure(b *testing.B, id string) {
	fig, err := qolsr.FigureByID(id)
	if err != nil {
		b.Fatal(err)
	}
	// Reduced axis: first, middle, last density.
	degrees := []float64{fig.Degrees[0], fig.Degrees[2], fig.Degrees[len(fig.Degrees)-1]}
	var res *qolsr.Sweep
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := qolsr.NewRunner(qolsr.WithRuns(3), qolsr.WithSeed(int64(i)+1), qolsr.WithDegrees(degrees...)).
			Run(context.Background(), fig)
		if err != nil {
			b.Fatal(err)
		}
		res = out.Sweeps[0]
	}
	b.StopTimer()
	for pi, deg := range degrees {
		for _, name := range res.Columns {
			metricName := fmt.Sprintf("%s_d%g", name, deg)
			b.ReportMetric(res.Cell(pi, name, fig.Quantity).Mean(), metricName)
		}
	}
}

// BenchmarkSweep measures the parallel point-level runner end to end: a
// two-figure experiment whose density points and runs share one worker
// budget. Track this number to catch sweep-throughput regressions.
func BenchmarkSweep(b *testing.B) {
	fig6, err := qolsr.FigureByID("fig6")
	if err != nil {
		b.Fatal(err)
	}
	fig8, err := qolsr.FigureByID("fig8")
	if err != nil {
		b.Fatal(err)
	}
	r := qolsr.NewRunner(qolsr.WithRuns(3), qolsr.WithSeed(1), qolsr.WithDegrees(10, 15, 20))
	var points int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(context.Background(), fig6, fig8)
		if err != nil {
			b.Fatal(err)
		}
		points = 0
		for _, s := range res.Sweeps {
			points += len(s.Points)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(points), "points")
}

// BenchmarkFigure6 regenerates Fig. 6: advertised-set size vs density under
// the bandwidth metric.
func BenchmarkFigure6(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkFigure7 regenerates Fig. 7: advertised-set size vs density under
// the delay metric.
func BenchmarkFigure7(b *testing.B) { benchFigure(b, "fig7") }

// BenchmarkFigure8 regenerates Fig. 8: bandwidth overhead vs density.
func BenchmarkFigure8(b *testing.B) { benchFigure(b, "fig8") }

// BenchmarkFigure9 regenerates Fig. 9: delay overhead vs density.
func BenchmarkFigure9(b *testing.B) { benchFigure(b, "fig9") }

// benchNetwork builds one paper-style deployment for the micro benches.
func benchNetwork(b *testing.B, degree float64, channel string) *qolsr.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	dep := qolsr.Deployment{Field: qolsr.Field{Width: 600, Height: 600}, Radius: 100, Degree: degree}
	g, err := qolsr.BuildNetwork(dep, channel, qolsr.DefaultInterval(), rng)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchSelector measures one selector over every node of a fixed field.
func benchSelector(b *testing.B, sel qolsr.Selector, m qolsr.Metric, degree float64) {
	g := benchNetwork(b, degree, m.Name())
	w, err := g.Weights(m.Name())
	if err != nil {
		b.Fatal(err)
	}
	views := make([]*qolsr.LocalView, g.N())
	for u := range views {
		views[u] = qolsr.NewLocalView(g, int32(u))
	}
	var setSize int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setSize = 0
		for _, view := range views {
			ans, err := sel.Select(view, m, w)
			if err != nil {
				b.Fatal(err)
			}
			setSize += len(ans)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(setSize)/float64(g.N()), "links/node")
	b.ReportMetric(float64(g.N()), "nodes")
}

// BenchmarkFNBPFast measures the paper's algorithm with the fast first-hop
// computation (ablation A3, fast side; the slow side, the same selection on
// the definition-level first hops, is BenchmarkFNBPReference in
// internal/core).
func BenchmarkFNBPFast(b *testing.B) {
	for _, m := range []qolsr.Metric{qolsr.Bandwidth(), qolsr.Delay()} {
		b.Run(m.Name(), func(b *testing.B) {
			benchSelector(b, qolsr.FNBP{}, m, 15)
		})
	}
}

// BenchmarkTopologyFilter measures the RNG-filtering baseline.
func BenchmarkTopologyFilter(b *testing.B) {
	benchSelector(b, qolsr.TopologyFilter{}, qolsr.Bandwidth(), 15)
}

// BenchmarkQOLSRMPR2 measures the original QOLSR selection.
func BenchmarkQOLSRMPR2(b *testing.B) {
	benchSelector(b, qolsr.QOLSRAdapter{Heuristic: qolsr.MPRQOLSR2}, qolsr.Bandwidth(), 15)
}

// BenchmarkAblationLoopFix compares set sizes across loop-fix variants
// (ablation A1).
func BenchmarkAblationLoopFix(b *testing.B) {
	for _, spec := range qolsr.LoopFixAblation() {
		b.Run(spec.Name, func(b *testing.B) {
			benchSelector(b, spec.Selector, qolsr.Bandwidth(), 15)
		})
	}
}

// BenchmarkAblationLocalLinks measures routing overhead with and without
// the source's local links (ablation A2): ablation-locallinks at degree 15,
// 3 runs, seed 9, one density point on a Runner.
func BenchmarkAblationLocalLinks(b *testing.B) {
	fig, err := qolsr.SweepByID("locallinks")
	if err != nil {
		b.Fatal(err)
	}
	r := qolsr.NewRunner(qolsr.WithDegrees(15), qolsr.WithRuns(3), qolsr.WithSeed(9))
	var res *qolsr.Results
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err = r.Run(context.Background(), fig); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, name := range res.Sweeps[0].Columns {
		b.ReportMetric(res.Sweeps[0].Cell(0, name, qolsr.QuantityOverhead).Mean(), "overhead_"+name)
	}
}

// BenchmarkDijkstra measures the generalized search on a paper-scale field.
func BenchmarkDijkstra(b *testing.B) {
	for _, m := range []qolsr.Metric{qolsr.Bandwidth(), qolsr.Delay()} {
		b.Run(m.Name(), func(b *testing.B) {
			g := benchNetwork(b, 20, m.Name())
			w, err := g.Weights(m.Name())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp := qolsr.Dijkstra(g, m, w, int32(i%g.N()), nil, -1)
				if len(sp.Reached) == 0 {
					b.Fatal("no nodes reached")
				}
			}
		})
	}
}

// BenchmarkFirstHops measures the per-node fP computation, the inner loop
// of FNBP.
func BenchmarkFirstHops(b *testing.B) {
	for _, m := range []qolsr.Metric{qolsr.Bandwidth(), qolsr.Delay()} {
		b.Run(m.Name(), func(b *testing.B) {
			g := benchNetwork(b, 20, m.Name())
			w, err := g.Weights(m.Name())
			if err != nil {
				b.Fatal(err)
			}
			views := make([]*qolsr.LocalView, g.N())
			for u := range views {
				views[u] = qolsr.NewLocalView(g, int32(u))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := qolsr.ComputeFirstHops(views[i%len(views)], m, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHelloCodec measures HELLO wire encoding and decoding.
func BenchmarkHelloCodec(b *testing.B) {
	h := &olsr.Hello{Origin: 12345, Seq: 7}
	for i := 0; i < 20; i++ {
		h.Links = append(h.Links, olsr.LinkInfo{Neighbor: int64(i), Weight: float64(i) + 0.5})
	}
	h.MPRs = []int64{1, 3, 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := olsr.MarshalHello(h)
		if _, err := olsr.UnmarshalHello(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCCodec measures TC wire encoding and decoding.
func BenchmarkTCCodec(b *testing.B) {
	tc := &olsr.TC{Origin: 9, ANSN: 3, Seq: 4}
	for i := 0; i < 5; i++ {
		tc.Links = append(tc.Links, olsr.LinkInfo{Neighbor: int64(i), Weight: 2.5})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := olsr.MarshalTC(tc)
		if _, err := olsr.UnmarshalTC(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControlOverhead runs the live protocol stack per selector and
// reports control bytes per simulated second (experiment A4): TC cost
// follows the advertised-set sizes of Figs. 6-7.
func BenchmarkControlOverhead(b *testing.B) {
	selectors := []qolsr.Selector{
		qolsr.FNBP{},
		qolsr.TopologyFilter{},
		qolsr.QOLSRAdapter{Heuristic: qolsr.MPRQOLSR2},
	}
	for _, sel := range selectors {
		b.Run(sel.Name(), func(b *testing.B) {
			m := qolsr.Bandwidth()
			g := benchNetwork(b, 12, m.Name())
			var rate float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := qolsr.DefaultProtocolConfig(m)
				cfg.Selector = sel
				nw, err := qolsr.NewNetwork(g, cfg, qolsr.NetworkOptions{Seed: 5})
				if err != nil {
					b.Fatal(err)
				}
				nw.Start()
				nw.Run(20 * time.Second)
				rate = nw.ControlBytesPerSecond()
			}
			b.StopTimer()
			b.ReportMetric(rate, "ctrlB/s")
		})
	}
}

// BenchmarkScenario measures the scenario engine end to end: one built-in
// scenario program (single-link-flap) scaled down to a small explicit
// topology and a short horizon, one replicate per iteration. Track this
// number to catch scenario-engine throughput regressions.
func BenchmarkScenario(b *testing.B) {
	sc, err := qolsr.ScenarioByName("single-link-flap", "fnbp")
	if err != nil {
		b.Fatal(err)
	}
	// Small N: a 3×4 grid of explicit positions instead of the built-in's
	// ~115-node Poisson field, with a proportionally shorter timeline.
	var pts []qolsr.Point
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			pts = append(pts, qolsr.Point{X: 30 + 80*float64(c), Y: 30 + 80*float64(r)})
		}
	}
	sc.Topology = qolsr.ScenarioTopology{Points: pts, Field: qolsr.Field{Width: 400, Height: 300}, Radius: 100}
	sc.Duration = 40 * time.Second
	sc.Warmup = 16 * time.Second
	sc.Phases = []qolsr.ScenarioPhase{
		{At: 21 * time.Second, Action: qolsr.ActionFailRandom{Count: 1}},
		{At: 31 * time.Second, Action: qolsr.ActionRestoreAll{}},
	}
	var res *qolsr.ScenarioResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = qolsr.NewRunner(qolsr.WithRuns(1), qolsr.WithSeed(int64(i)+1), qolsr.WithWorkers(1)).
			RunScenario(context.Background(), sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	agg := res.Aggregate()
	last := agg[len(agg)-1]
	b.ReportMetric(float64(len(agg)), "samples")
	b.ReportMetric(last.Delivery.Mean(), "delivery")
}

// BenchmarkDataplaneForwarding measures the data-plane hot path: a converged
// paper-scale network forwards one full delivery sweep (every node sends one
// packet to the sink) per iteration. Each hop consults the arrival node's
// routing table, so this benchmark tracks the cost of table lookups under a
// steady control plane — the path the scenario engine's probe flows and the
// delivery experiments live on.
func BenchmarkDataplaneForwarding(b *testing.B) {
	m := qolsr.Bandwidth()
	g := benchNetwork(b, 15, m.Name())
	cfg := qolsr.DefaultProtocolConfig(m)
	nw, err := qolsr.NewNetwork(g, cfg, qolsr.NetworkOptions{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	nw.Start()
	nw.Run(30 * time.Second)
	b.ReportMetric(float64(g.N()), "nodes")
	b.ResetTimer()
	var delivered countSink
	for i := 0; i < b.N; i++ {
		delivered = 0
		for src := int32(1); int(src) < g.N(); src++ {
			nw.SendDataTraced(src, 0, sim.DataPacketBytes, &delivered, 0, nil)
		}
		nw.Run(nw.Engine.Now() + time.Second)
		if delivered == 0 {
			b.Fatal("nothing delivered")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(nw.Data.Delivered)/float64(nw.Data.Sent), "delivery")
}

// countSink counts delivered packets.
type countSink int

func (c *countSink) PacketDone(_ uint64, delivered bool, _ int, _ time.Duration) {
	if delivered {
		*c++
	}
}

// BenchmarkProtocolConvergence measures wall time to simulate 30 virtual
// seconds of the full stack.
func BenchmarkProtocolConvergence(b *testing.B) {
	m := qolsr.Bandwidth()
	g := benchNetwork(b, 10, m.Name())
	cfg := qolsr.DefaultProtocolConfig(m)
	for i := 0; i < b.N; i++ {
		nw, err := qolsr.NewNetwork(g, cfg, qolsr.NetworkOptions{Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		nw.Start()
		nw.Run(30 * time.Second)
	}
}
