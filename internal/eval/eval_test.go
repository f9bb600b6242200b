package eval

import (
	"context"
	"strings"
	"testing"

	"qolsr/internal/geom"
	"qolsr/internal/metric"
)

// smallScenario keeps tests fast: low density, few runs, small field.
func smallScenario(m metric.Metric, degree float64, runs int) Scenario {
	return Scenario{
		Deployment:     geom.Deployment{Field: geom.Field{Width: 400, Height: 400}, Radius: 100, Degree: degree},
		Metric:         m,
		WeightInterval: metric.DefaultInterval(),
		Runs:           runs,
		Seed:           42,
	}
}

func TestRunPointBasics(t *testing.T) {
	sc := smallScenario(metric.Bandwidth(), 10, 4)
	res, err := RunPoint(context.Background(), sc, PaperProtocols())
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

// Determinism: the same scenario yields bit-identical accumulators
// regardless of worker count.
func TestRunPointDeterministic(t *testing.T) {
	sc := smallScenario(metric.Delay(), 8, 6)
	sc.Workers = 1
	a, err := RunPoint(context.Background(), sc, PaperProtocols())
	if err != nil {
		t.Fatal(err)
	}
	sc.Workers = 4
	b, err := RunPoint(context.Background(), sc, PaperProtocols())
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

func TestRunPointValidation(t *testing.T) {
	sc := smallScenario(metric.Bandwidth(), 10, 0)
	if _, err := RunPoint(context.Background(), sc, PaperProtocols()); err == nil {
		t.Error("zero runs accepted")
	}
	sc = smallScenario(metric.Bandwidth(), 10, 1)
	sc.WeightInterval = metric.Interval{Lo: 0, Hi: 1}
	if _, err := RunPoint(context.Background(), sc, PaperProtocols()); err == nil {
		t.Error("invalid interval accepted")
	}
	sc = smallScenario(metric.Bandwidth(), 0, 1)
	if _, err := RunPoint(context.Background(), sc, PaperProtocols()); err == nil {
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
	sc := smallScenario(metric.Bandwidth(), 18, 8)
	res, err := RunPoint(context.Background(), sc, PaperProtocols())
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
	sc := smallScenario(metric.Bandwidth(), 18, 8)
	res, err := RunPoint(context.Background(), sc, PaperProtocols())
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

// runFigureSerial assembles a FigureResult point by point, the way the
// runner package does in parallel.
func runFigureSerial(t *testing.T, fig Figure, runs int, seed int64) *FigureResult {
	t.Helper()
	res := &FigureResult{Figure: fig, Runs: runs}
	for _, deg := range fig.Degrees {
		sc := fig.Scenario(deg, runs, seed, metric.DefaultInterval())
		// Tests sweep sub-paper densities on a small field for speed.
		sc.Deployment = geom.Deployment{Field: geom.Field{Width: 400, Height: 400}, Radius: 100, Degree: deg}
		point, err := RunPoint(context.Background(), sc, fig.Protocols)
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
	var csv strings.Builder
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Errorf("csv lines = %d, want 3", len(lines))
	}
	if !strings.HasPrefix(lines[0], "density,qolsr_mean,qolsr_ci95") {
		t.Errorf("csv header = %s", lines[0])
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
	sc := smallScenario(metric.Bandwidth(), 10, 4)
	sc.MeasureDirectedDelivery = true
	res, err := RunPoint(context.Background(), sc, LoopFixAblation())
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

func TestControlSweep(t *testing.T) {
	res, err := RunControlSweep(context.Background(), ControlSweepOptions{
		Degrees: []float64{8},
		Runs:    1,
		SimTime: 15 * 1e9, // 15s virtual
		Seed:    3,
		Field:   geom.Field{Width: 300, Height: 300},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || len(res.Points[0]) != 3 {
		t.Fatalf("points shape wrong: %d rows", len(res.Points))
	}
	for _, p := range res.Points[0] {
		if p.TCBytesPerSec.Mean() <= 0 {
			t.Errorf("%s: no TC traffic", p.Selector)
		}
		if p.HelloBytesPerSec.Mean() <= 0 {
			t.Errorf("%s: no HELLO traffic", p.Selector)
		}
	}
	// QOLSR's bigger advertised sets must cost more TC bytes than FNBP's.
	var fnbpRate, qolsrRate float64
	for _, p := range res.Points[0] {
		switch p.Selector {
		case "fnbp":
			fnbpRate = p.TCBytesPerSec.Mean()
		case "qolsr-qolsr-mpr2":
			qolsrRate = p.TCBytesPerSec.Mean()
		}
	}
	if fnbpRate >= qolsrRate {
		t.Errorf("TC rate ordering violated: fnbp %.0f >= qolsr %.0f", fnbpRate, qolsrRate)
	}
	var sb strings.Builder
	if err := res.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "A4") {
		t.Error("table header missing")
	}
}

func TestPointResultSortedNames(t *testing.T) {
	sc := smallScenario(metric.Bandwidth(), 8, 1)
	res, err := RunPoint(context.Background(), sc, PaperProtocols())
	if err != nil {
		t.Fatal(err)
	}
	names := res.SortedProtocolNames()
	if len(names) != 3 || names[0] != "fnbp" {
		t.Errorf("sorted names = %v", names)
	}
}

func TestRunPointCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := smallScenario(metric.Bandwidth(), 10, 8)
	if _, err := RunPoint(ctx, sc, PaperProtocols()); err != context.Canceled {
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

func TestQuantityByName(t *testing.T) {
	for _, name := range []string{"set-size", "overhead", "delivery", "directed-delivery"} {
		q, err := QuantityByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(q) != name {
			t.Errorf("%s resolved to %q", name, q)
		}
	}
	if _, err := QuantityByName("bogus"); err == nil {
		t.Error("unknown quantity accepted")
	}
}
