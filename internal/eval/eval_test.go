package eval

import (
	"context"
	"slices"
	"strings"
	"testing"

	"qolsr/internal/geom"
	"qolsr/internal/metric"
)

// smallPoint keeps tests fast: a low-density point on a small field.
func smallPoint(m metric.Metric, degree float64, protocols []ProtocolSpec) pointSpec {
	return pointSpec{
		deployment: geom.Deployment{Field: geom.Field{Width: 400, Height: 400}, Radius: 100, Degree: degree},
		metric:     m,
		seed:       42,
		protocols:  protocols,
	}
}

// runPoint evaluates one density point at runs topologies on the cell loop
// runFigures runs every figure's points on; tests use it for deployments
// off the paper's field.
func runPoint(ctx context.Context, sc pointSpec, runs, workers int) (*PointResult, error) {
	rows, err := pointSweep([]pointSpec{sc}, runs, workers, nil).run(ctx)
	if err != nil {
		return nil, err
	}
	return rows[0][0], nil
}

func TestRunPointBasics(t *testing.T) {
	res, err := runPoint(context.Background(), smallPoint(metric.Bandwidth(), 10, PaperProtocols()), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degree != 10 {
		t.Errorf("Degree = %v", res.Degree)
	}
	if res.Nodes.N() != 4 {
		t.Errorf("node samples = %d, want 4", res.Nodes.N())
	}
	for _, name := range []string{"qolsr", "topofilter", "fnbp"} {
		pp := res.Protocols[name]
		if pp == nil {
			t.Fatalf("missing protocol %s", name)
		}
		if pp.SetSize.N() == 0 {
			t.Errorf("%s: no set-size samples", name)
		}
		if pp.SetSize.Mean() < 0 {
			t.Errorf("%s: negative set size", name)
		}
		if pp.Delivery.N()+res.SkippedRuns < 4 {
			t.Errorf("%s: delivery samples %d + skipped %d < runs", name, pp.Delivery.N(), res.SkippedRuns)
		}
	}
}

// Determinism: the same point yields bit-identical accumulators
// regardless of worker count.
func TestRunPointDeterministic(t *testing.T) {
	sc := smallPoint(metric.Delay(), 8, PaperProtocols())
	a, err := runPoint(context.Background(), sc, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runPoint(context.Background(), sc, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, pa := range a.Protocols {
		pb := b.Protocols[name]
		if pa.SetSize.Mean() != pb.SetSize.Mean() || pa.SetSize.N() != pb.SetSize.N() {
			t.Errorf("%s: set size differs across worker counts", name)
		}
		if pa.Overhead.Mean() != pb.Overhead.Mean() {
			t.Errorf("%s: overhead differs across worker counts", name)
		}
	}
}

// A point is validated before any topology is drawn: runFigures rejects a
// non-positive run count and a density its deployment cannot realise.
func TestRunPointValidation(t *testing.T) {
	fig := PaperFigures()[0]
	fig.Degrees = []float64{10}
	if _, err := runFigures(context.Background(), []Figure{fig}, Options{Seed: 42}, nil); err == nil {
		t.Error("zero runs accepted")
	}
	fig.Degrees = []float64{0}
	if _, err := runFigures(context.Background(), []Figure{fig}, Options{Runs: 1, Seed: 42}, nil); err == nil {
		t.Error("invalid deployment accepted")
	}
}

// The headline size claim at a single mid density: FNBP advertises fewer
// neighbors than topology filtering, which advertises fewer than QOLSR's
// MPR-2 set.
func TestSizeOrderingAtMidDensity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run evaluation")
	}
	res, err := runPoint(context.Background(), smallPoint(metric.Bandwidth(), 18, PaperProtocols()), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	fnbp := res.Protocols["fnbp"].SetSize.Mean()
	tf := res.Protocols["topofilter"].SetSize.Mean()
	qolsr := res.Protocols["qolsr"].SetSize.Mean()
	if !(fnbp < tf && tf < qolsr) {
		t.Errorf("size ordering violated: fnbp=%.2f topofilter=%.2f qolsr=%.2f", fnbp, tf, qolsr)
	}
}

// The headline overhead claim: FNBP's regret is far below QOLSR's.
func TestOverheadOrderingAtMidDensity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run evaluation")
	}
	res, err := runPoint(context.Background(), smallPoint(metric.Bandwidth(), 18, PaperProtocols()), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	fnbp := res.Protocols["fnbp"].Overhead.Mean()
	qolsr := res.Protocols["qolsr"].Overhead.Mean()
	if fnbp >= qolsr {
		t.Errorf("overhead ordering violated: fnbp=%.4f qolsr=%.4f", fnbp, qolsr)
	}
}

func TestPaperFiguresDefinitions(t *testing.T) {
	figs := PaperFigures()
	if len(figs) != 4 {
		t.Fatalf("figures = %d, want 4", len(figs))
	}
	wantMetric := map[string]string{
		"fig6": "bandwidth", "fig7": "delay",
		"fig8": "bandwidth", "fig9": "delay",
	}
	for _, f := range figs {
		if f.Metric.Name() != wantMetric[f.ID] {
			t.Errorf("%s metric = %s", f.ID, f.Metric.Name())
		}
		if len(f.Degrees) != 6 {
			t.Errorf("%s degrees = %v", f.ID, f.Degrees)
		}
		if len(f.Protocols) != 3 {
			t.Errorf("%s protocols = %d", f.ID, len(f.Protocols))
		}
	}
	if _, err := FigureByID("fig8"); err != nil {
		t.Error(err)
	}
	if _, err := FigureByID("fig99"); err == nil {
		t.Error("unknown figure accepted")
	}
}

// runFigureSerial assembles a FigureResult point by point, as runFigures
// does, on a field small enough for a unit test.
func runFigureSerial(t *testing.T, fig Figure, runs int, seed int64) *FigureResult {
	t.Helper()
	res := &FigureResult{Figure: fig, Runs: runs}
	for _, deg := range fig.Degrees {
		sc := fig.point(deg, seed)
		// Tests sweep sub-paper densities on a small field for speed.
		sc.deployment = geom.Deployment{Field: geom.Field{Width: 400, Height: 400}, Radius: 100, Degree: deg}
		point, err := runPoint(context.Background(), sc, runs, 0)
		if err != nil {
			t.Fatal(err)
		}
		res.Points = append(res.Points, point)
	}
	return res
}

func TestFigureWriters(t *testing.T) {
	fig := Figure{
		ID:        "figtest",
		Title:     "tiny smoke figure",
		Metric:    metric.Bandwidth(),
		Degrees:   []float64{8, 12},
		Quantity:  QuantitySetSize,
		Protocols: PaperProtocols(),
	}
	res := runFigureSerial(t, fig, 2, 7)
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}

	var tbl strings.Builder
	if err := res.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"figtest", "density", "qolsr", "fnbp"} {
		if !strings.Contains(tbl.String(), want) {
			t.Errorf("table missing %q:\n%s", want, tbl.String())
		}
	}
	var del strings.Builder
	if err := res.WriteDeliveryTable(&del); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(del.String(), "delivery ratio") {
		t.Error("delivery table header missing")
	}
	if v := res.Value(0, "fnbp"); v < 0 {
		t.Errorf("Value = %v", v)
	}
}

func TestProtocolSpecFactories(t *testing.T) {
	if len(LoopFixAblation()) != 3 {
		t.Error("loop-fix ablation size")
	}
	if len(LocalLinksAblation()) != 4 {
		t.Error("local-links ablation size")
	}
	if len(UpperBoundProtocols()) != 4 {
		t.Error("upper-bound protocols size")
	}
	if len(MPRHeuristicAblation()) != 3 {
		t.Error("mpr ablation size")
	}
	names := map[string]bool{}
	for _, p := range UpperBoundProtocols() {
		if names[p.Name] {
			t.Errorf("duplicate protocol name %s", p.Name)
		}
		names[p.Name] = true
	}
}

// Directed-advertisement delivery (ablation A1): with the loop fix the
// ratio must not be lower than without it.
func TestDirectedDeliveryAblation(t *testing.T) {
	sc := smallPoint(metric.Bandwidth(), 10, LoopFixAblation())
	sc.directed = true
	res, err := runPoint(context.Background(), sc, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	withFix := res.Protocols["fnbp"].DirectedDelivery
	without := res.Protocols["fnbp-nofix"].DirectedDelivery
	if withFix.N() == 0 {
		t.Fatal("no directed delivery samples")
	}
	if withFix.Mean() < without.Mean() {
		t.Errorf("loop fix reduced directed delivery: %.4f < %.4f",
			withFix.Mean(), without.Mean())
	}
	if withFix.Mean() <= 0 || withFix.Mean() > 1 {
		t.Errorf("delivery ratio out of range: %v", withFix.Mean())
	}
}

func TestRunPointCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runPoint(ctx, smallPoint(metric.Bandwidth(), 10, PaperProtocols()), 8, 0); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestSweepRegistry(t *testing.T) {
	if len(Ablations()) != 6 {
		t.Errorf("ablations = %d", len(Ablations()))
	}
	ids := SweepIDs()
	if len(ids) != 10 {
		t.Errorf("sweep IDs = %v", ids)
	}
	for _, id := range ids {
		f, err := SweepByID(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if f.ID != id || len(f.Protocols) < 2 || len(f.Degrees) == 0 || f.Metric == nil {
			t.Errorf("%s: incomplete figure %+v", id, f)
		}
	}
	// Short forms resolve to the prefixed ID.
	f, err := SweepByID("mprs")
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "ablation-mprs" {
		t.Errorf("short form resolved to %q", f.ID)
	}
	if _, err := SweepByID("fig99"); err == nil {
		t.Error("unknown sweep accepted")
	}
}

// Every listed quantity is a series a point measures, so -list names only
// quantities a figure can report.
func TestQuantityNames(t *testing.T) {
	want := []string{"set-size", "overhead", "delivery", "directed-delivery"}
	if got := QuantityNames(); !slices.Equal(got, want) {
		t.Errorf("QuantityNames() = %v, want %v", got, want)
	}
	var pp ProtocolPoint
	for _, name := range QuantityNames() {
		if pp.Series(Quantity(name)) == nil {
			t.Errorf("%s has no series", name)
		}
	}
	if pp.Series("bogus") != nil {
		t.Error("unknown quantity has a series")
	}
}

// TestRunFiguresSharesPoints: figures that agree on metric, protocols and
// directed delivery get one *PointResult per density, and any difference
// keeps points apart. The hook sees every (figure, point) once, after the
// point is stored.
func TestRunFiguresSharesPoints(t *testing.T) {
	var figs []Figure
	for _, id := range []string{"fig6", "fig7", "fig8", "fig9", "ablation-loopfix", "ablation-loopfix-size", "ablation-upper"} {
		f, err := SweepByID(id)
		if err != nil {
			t.Fatal(err)
		}
		f.Degrees = f.Degrees[:1]
		figs = append(figs, f)
	}
	seen := map[[2]int]int{}
	res, err := runFigures(context.Background(), figs, Options{Runs: 1, Seed: 3, Workers: 2}, func(fr *FigureResult, fi, pi int) {
		if fr.Figure.ID != figs[fi].ID || fr.Points[pi] == nil {
			t.Errorf("%s point %d handed over unset", figs[fi].ID, pi)
		}
		seen[[2]int{fi, pi}]++
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(figs) {
		t.Errorf("hook saw %d (figure, point) pairs, want %d", len(seen), len(figs))
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("hook saw %v %d times", k, n)
		}
	}
	p := func(i int) *PointResult { return res[i].Points[0] }
	if p(0) != p(2) || p(1) != p(3) {
		t.Error("fig6/fig8 or fig7/fig9 simulated twice")
	}
	if p(0) == p(6) || p(4) == p(5) || p(0) == p(1) {
		t.Error("figures differing in protocols, directed delivery or metric share a point")
	}
}

// A figure without density points is rejected before any topology is
// drawn, naming it.
func TestRunFiguresRejectsEmptyFigure(t *testing.T) {
	fig6, fig7 := PaperFigures()[0], PaperFigures()[1]
	fig6.Degrees = nil
	_, err := runFigures(context.Background(), []Figure{fig7, fig6}, Options{Runs: 1, Seed: 1, Workers: 1}, func(*FigureResult, int, int) {
		t.Error("a point ran")
	})
	if err == nil || !strings.Contains(err.Error(), "fig6") {
		t.Errorf("err = %v, want one naming fig6", err)
	}
}

// The paper's orderings at every density of Figs. 6-9, from the two sweeps
// runFigures shares between them: set size fnbp < topofilter < qolsr (at
// delay δ=5 only fnbp below both; topofilter advertises more than QOLSR
// there, see README), overhead fnbp < qolsr.
func TestPaperOrderingsAtEveryDensity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run evaluation")
	}
	res, err := runFigures(context.Background(), PaperFigures(), Options{Runs: 4, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{0, 2}, {1, 3}} {
		size, over := res[pair[0]], res[pair[1]]
		for i, deg := range size.Figure.Degrees {
			if size.Points[i] != over.Points[i] {
				t.Errorf("%s and %s simulated density %g twice", size.Figure.ID, over.Figure.ID, deg)
			}
			fnbp, tf, qolsr := size.Value(i, "fnbp"), size.Value(i, "topofilter"), size.Value(i, "qolsr")
			if size.Figure.ID == "fig7" && deg == 5 {
				if !(fnbp < tf && fnbp < qolsr) {
					t.Errorf("fig7 δ=5: fnbp=%.2f not below topofilter=%.2f and qolsr=%.2f", fnbp, tf, qolsr)
				}
			} else if !(fnbp < tf && tf < qolsr) {
				t.Errorf("%s δ=%g: size ordering violated: fnbp=%.2f topofilter=%.2f qolsr=%.2f", size.Figure.ID, deg, fnbp, tf, qolsr)
			}
			if f, q := over.Value(i, "fnbp"), over.Value(i, "qolsr"); f >= q {
				t.Errorf("%s δ=%g: overhead ordering violated: fnbp=%.4f qolsr=%.4f", over.Figure.ID, deg, f, q)
			}
		}
	}
}
