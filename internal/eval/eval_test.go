package eval

import (
	"context"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"qolsr/internal/geom"
	"qolsr/internal/metric"
	"qolsr/internal/stats"
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
// runFigures runs every figure's points on, as a one-point sweep; tests use
// it for deployments off the paper's field.
func runPoint(ctx context.Context, sc pointSpec, runs, workers int) (*Sweep, error) {
	rows, err := pointSweep([]pointSpec{sc}, runs, workers, nil).run(ctx)
	if err != nil {
		return nil, err
	}
	fig := Figure{ID: "point", Metric: sc.metric, Degrees: []float64{sc.deployment.Degree}, Quantity: QuantitySetSize, Protocols: sc.protocols}
	if sc.directed {
		fig.Quantity = QuantityDirectedDelivery
	}
	s := fig.sweep(runs, sc.seed)
	s.cells[0] = rows[0][0]
	return s, nil
}

func TestRunPointBasics(t *testing.T) {
	res, err := runPoint(context.Background(), smallPoint(metric.Bandwidth(), 10, PaperProtocols()), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[0] != 10 {
		t.Errorf("point = %v", res.Points[0])
	}
	for _, name := range []string{"qolsr", "topofilter", "fnbp"} {
		size := res.Cell(0, name, QuantitySetSize)
		if size == nil {
			t.Fatalf("missing protocol %s", name)
		}
		if size.N() == 0 {
			t.Errorf("%s: no set-size samples", name)
		}
		if size.Mean() < 0 {
			t.Errorf("%s: negative set size", name)
		}
		if n := res.Cell(0, name, quantityNodes).N(); n != 4 {
			t.Errorf("%s: node samples = %d, want 4", name, n)
		}
		skipped := res.Cell(0, name, quantitySkipped)
		if dlv, skip := res.Cell(0, name, QuantityDelivery).N(), int(math.Round(skipped.Mean()*float64(skipped.N()))); skipped.N() != 4 || dlv+skip != 4 {
			t.Errorf("%s: delivery samples %d + skipped %d over %d runs, want 4", name, dlv, skip, skipped.N())
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
	if !reflect.DeepEqual(a.cells, b.cells) {
		t.Error("accumulators differ across worker counts")
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
	fnbp := res.Cell(0, "fnbp", QuantitySetSize).Mean()
	tf := res.Cell(0, "topofilter", QuantitySetSize).Mean()
	qolsr := res.Cell(0, "qolsr", QuantitySetSize).Mean()
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
	fnbp := res.Cell(0, "fnbp", QuantityOverhead).Mean()
	qolsr := res.Cell(0, "qolsr", QuantityOverhead).Mean()
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

// runFigureSerial assembles a figure's sweep point by point, as
// runFigures does, on a field small enough for a unit test.
func runFigureSerial(t *testing.T, fig Figure, runs int, seed int64) *Sweep {
	t.Helper()
	res := fig.sweep(runs, seed)
	for pi, deg := range fig.Degrees {
		sc := fig.point(deg, seed)
		// Tests sweep sub-paper densities on a small field for speed.
		sc.deployment = geom.Deployment{Field: geom.Field{Width: 400, Height: 400}, Radius: 100, Degree: deg}
		point, err := runPoint(context.Background(), sc, runs, 0)
		if err != nil {
			t.Fatal(err)
		}
		res.cells[pi] = point.cells[0]
	}
	return res
}

// TestFigureWriters: a figure's table heads each protocol's headline
// quantity by the protocol's name with its ±95% beside it, and an overhead
// or directed-delivery table adds the protocol's delivery.
func TestFigureWriters(t *testing.T) {
	fig := Figure{
		ID:        "figtest",
		Title:     "tiny smoke figure",
		Metric:    metric.Bandwidth(),
		Degrees:   []float64{8, 12},
		Protocols: PaperProtocols(),
	}
	for _, q := range QuantityNames() {
		fig.Quantity = Quantity(q)
		var tbl strings.Builder
		if err := (&Result{Sweeps: []*Sweep{runFigureSerial(t, fig, 2, 7)}}).WriteTables(&tbl); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(tbl.String(), "\n"), "\n")
		want := []string{"density"}
		for _, p := range fig.Protocols {
			want = append(want, p.Name, "±95%")
			if fig.Quantity == QuantityOverhead || fig.Quantity == QuantityDirectedDelivery {
				want = append(want, p.Name+"_delivery")
			}
		}
		if len(lines) != 4 || lines[0] != "# figtest — tiny smoke figure (2 runs/point)" || !slices.Equal(strings.Fields(lines[1]), want) {
			t.Errorf("%s table:\n%s\nwant header %q", q, tbl.String(), want)
			continue
		}
		if row := strings.Fields(lines[2]); len(row) != len(want) || row[0] != "8" {
			t.Errorf("%s: first row %q", q, row)
		}
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
	withFix := res.Cell(0, "fnbp", QuantityDirectedDelivery)
	without := res.Cell(0, "fnbp-nofix", QuantityDirectedDelivery)
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

// Every listed quantity is a series a figure run measures, so -list names
// only quantities a figure can headline, and a figure headlining any other
// is rejected, naming it, before any topology is drawn.
func TestQuantityNames(t *testing.T) {
	want := []string{"set-size", "overhead", "delivery", "directed-delivery"}
	if got := QuantityNames(); !slices.Equal(got, want) {
		t.Errorf("QuantityNames() = %v, want %v", got, want)
	}
	for _, name := range QuantityNames() {
		if !slices.Contains(figureSeries(true), Quantity(name)) {
			t.Errorf("%s has no series", name)
		}
	}
	fig := tinyFigure("bad", 3)
	fig.Quantity = "bogus"
	_, err := runFigures(context.Background(), []Figure{fig}, Options{Runs: 1, Seed: 1, Workers: 1}, func(*Sweep, int, int) {
		t.Error("a point ran")
	})
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("err = %v, want one naming the unknown quantity", err)
	}
}

// TestRunFiguresSharesPoints: figures that agree on metric, protocols and
// directed delivery share one row of accumulators per density, and any
// difference keeps points apart. The hook sees every (figure, point) once, after the
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
	res, err := runFigures(context.Background(), figs, Options{Runs: 1, Seed: 3, Workers: 2}, func(s *Sweep, fi, pi int) {
		if s.ID != figs[fi].ID || s.cells[pi] == nil {
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
	p := func(i int) *stats.Accumulator { return &res[i].cells[0][0][0] }
	if p(0) != p(2) || p(1) != p(3) {
		t.Error("fig6/fig8 or fig7/fig9 simulated twice")
	}
	if p(0) == p(6) || p(4) == p(5) || p(0) == p(1) {
		t.Error("figures differing in protocols, directed delivery or metric share a point")
	}
}

// A figure without density points or without protocols is rejected before
// any topology is drawn, naming it.
func TestRunFiguresRejectsEmptyFigure(t *testing.T) {
	for _, empty := range []func(*Figure){func(f *Figure) { f.Degrees = nil }, func(f *Figure) { f.Protocols = nil }} {
		fig6, fig7 := PaperFigures()[0], PaperFigures()[1]
		empty(&fig6)
		_, err := runFigures(context.Background(), []Figure{fig7, fig6}, Options{Runs: 1, Seed: 1, Workers: 1}, func(*Sweep, int, int) {
			t.Error("a point ran")
		})
		if err == nil || !strings.Contains(err.Error(), "fig6") {
			t.Errorf("err = %v, want one naming fig6", err)
		}
	}
}

// The paper's orderings at every density of Figs. 6-9, from the two sweeps
// runFigures shares between them: set size fnbp < topofilter < qolsr (at
// delay δ=5 only fnbp below both; topofilter advertises more than QOLSR
// there, see README), overhead fnbp < qolsr. Overhead averages over
// delivered pairs only, so the delivery beside it is pinned too:
// topofilter and qolsr deliver every pair, and FNBP loses fig 8's pair in
// one of the four runs at δ = 30 and 35 (ROADMAP item 2) but none of
// fig 9's.
func TestPaperOrderingsAtEveryDensity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run evaluation")
	}
	res, err := runFigures(context.Background(), PaperFigures(), Options{Runs: 4, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fnbpDelivery := map[string][]float64{
		"fig8": {1, 1, 1, 1, 0.75, 0.75},
		"fig9": {1, 1, 1, 1, 1, 1},
	}
	for _, pair := range [][2]int{{0, 2}, {1, 3}} {
		size, over := res[pair[0]], res[pair[1]]
		for i, deg := range size.Points {
			if &size.cells[i][0][0] != &over.cells[i][0][0] {
				t.Errorf("%s and %s simulated density %g twice", size.ID, over.ID, deg)
			}
			v := func(s *Sweep, name string, q Quantity) float64 { return s.Cell(i, name, q).Mean() }
			fnbp, tf, qolsr := v(size, "fnbp", QuantitySetSize), v(size, "topofilter", QuantitySetSize), v(size, "qolsr", QuantitySetSize)
			if size.ID == "fig7" && deg == 5 {
				if !(fnbp < tf && fnbp < qolsr) {
					t.Errorf("fig7 δ=5: fnbp=%.2f not below topofilter=%.2f and qolsr=%.2f", fnbp, tf, qolsr)
				}
			} else if !(fnbp < tf && tf < qolsr) {
				t.Errorf("%s δ=%g: size ordering violated: fnbp=%.2f topofilter=%.2f qolsr=%.2f", size.ID, deg, fnbp, tf, qolsr)
			}
			if f, q := v(over, "fnbp", QuantityOverhead), v(over, "qolsr", QuantityOverhead); f >= q {
				t.Errorf("%s δ=%g: overhead ordering violated: fnbp=%.4f qolsr=%.4f", over.ID, deg, f, q)
			}
			for _, name := range []string{"topofilter", "qolsr"} {
				if d := v(over, name, QuantityDelivery); d != 1 {
					t.Errorf("%s δ=%g: %s delivers %.4f, want 1", over.ID, deg, name, d)
				}
			}
			if d, want := v(over, "fnbp", QuantityDelivery), fnbpDelivery[over.ID][i]; d != want {
				t.Errorf("%s δ=%g: fnbp delivers %.4f, want %.4f", over.ID, deg, d, want)
			}
		}
	}
}
