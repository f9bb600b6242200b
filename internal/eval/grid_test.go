package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"qolsr/internal/geom"
)

// smallGrid returns the named grid cut to a test's size: the given axis,
// measured time after the grid's warmup and square field side, at the given
// mean degree when the grid's axis is not density itself.
func smallGrid(t *testing.T, name string, axis []float64, after time.Duration, side, degree float64) liveGrid {
	t.Helper()
	g, err := liveGridByName(name, ScaleAxis{})
	if err != nil {
		t.Fatal(err)
	}
	g.Points = axis
	g.base.Duration = g.base.Warmup + after
	if d := g.base.Topology.Deployment; d != nil {
		dep := *d
		dep.Field = geom.Field{Width: side, Height: side}
		dep.Degree = degree
		g.base.Topology.Deployment = &dep
	}
	return g
}

// withFlows sets the flow count of a grid's traffic mix.
func withFlows(g liveGrid, flows int) liveGrid {
	g.base.Traffic.Mix = slices.Clone(g.base.Traffic.Mix)
	g.base.Traffic.Mix[0].Count = flows
	return g
}

// runGrid runs a test grid and fails the test on error.
func runGrid(t *testing.T, g liveGrid, seed int64, runs, workers int) *Sweep {
	t.Helper()
	res, err := g.run(context.Background(), Options{Seed: seed, Runs: runs, Workers: workers})
	if err != nil {
		t.Fatalf("%s: %v", g.ID, err)
	}
	return res
}

// render is a sweep's table followed by its JSON and CSV forms.
func render(t *testing.T, s *Sweep) string {
	t.Helper()
	var b bytes.Buffer
	res := &Result{Sweeps: []*Sweep{s}}
	for _, encode := range []func(io.Writer) error{res.WriteTables, res.EncodeJSON, res.EncodeCSV} {
		if err := encode(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// scaleTestGrid is S1 at two small node counts with a short warmup and
// traffic phase.
func scaleTestGrid(t *testing.T) liveGrid {
	g := withFlows(smallGrid(t, "scale", []float64{30, 60}, 0, 0, 0), 8)
	g.base.Warmup, g.base.Duration, g.base.SampleEvery = 5*time.Second, 10*time.Second, 5*time.Second
	return g
}

// TestControlSweep: on the live stack every selector sends HELLOs and TCs,
// and FNBP's small advertised sets cost fewer TC bytes than QOLSR's.
func TestControlSweep(t *testing.T) {
	res := runGrid(t, smallGrid(t, "control", []float64{8}, 5*time.Second, 300, 0), 3, 1, 1)
	for _, sel := range res.Columns {
		if res.Cell(0, sel, "tcB/s").Mean() <= 0 {
			t.Errorf("%s: no TC traffic", sel)
		}
		if res.Cell(0, sel, "helloB/s").Mean() <= 0 {
			t.Errorf("%s: no HELLO traffic", sel)
		}
	}
	if fnbp, qolsr := res.Cell(0, "fnbp", "tcB/s").Mean(), res.Cell(0, "qolsr", "tcB/s").Mean(); fnbp >= qolsr {
		t.Errorf("TC rate ordering violated: fnbp %.0f >= qolsr %.0f", fnbp, qolsr)
	}
	if out := render(t, res); !strings.Contains(out, "# A4") {
		t.Errorf("table header missing:\n%s", out)
	}
}

// TestLiveGridProgress: a grid reports one progress line per folded axis
// point.
func TestLiveGridProgress(t *testing.T) {
	g := smallGrid(t, "control", []float64{8}, time.Second, 300, 0)
	var lines []string
	progress := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	if _, err := g.run(context.Background(), Options{Seed: 1, Runs: 1, Workers: 1, Progress: progress}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"control density 8 done (1 runs)"}; !slices.Equal(lines, want) {
		t.Errorf("progress lines %q, want %q", lines, want)
	}
}

// TestRunLossSweep: nothing is lost in flight at zero loss, 30% loss bites,
// and on the shared fields delivery does not rise with loss in either
// sensing mode.
func TestRunLossSweep(t *testing.T) {
	res := runGrid(t, smallGrid(t, "loss", []float64{0, 0.3}, 10*time.Second, 300, 8), 1, 2, 1)
	for pt, loss := range res.Points {
		for _, mode := range res.Columns {
			dlv := res.Cell(pt, mode, "dlv")
			if d := dlv.Mean(); dlv.N() == 0 || d < 0 || d > 1 {
				t.Errorf("loss %g mode %s: delivery %g over %d runs", loss, mode, d, dlv.N())
			}
			lost := res.Cell(pt, mode, "lost").Mean()
			if pt == 0 && lost != 0 {
				t.Errorf("zero-loss point (%s) lost %g of data frames", mode, lost)
			}
			if pt == 1 && lost == 0 {
				t.Errorf("30%%-loss point (%s) lost nothing", mode)
			}
		}
	}
	for _, mode := range res.Columns {
		if hi, lo := res.Cell(1, mode, "dlv").Mean(), res.Cell(0, mode, "dlv").Mean(); hi > lo {
			t.Errorf("mode %s: delivery rose with loss (%g > %g)", mode, hi, lo)
		}
	}
	out := render(t, res)
	for _, want := range []string{"# A7", "oracle_dlv", "measured_dlv", "0.3"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestRunLossSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunLiveGrid(ctx, "loss", ScaleAxis{}, Options{Seed: 1, Runs: 1, Workers: 1}); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// loadTestGrid is A8 at two loads, 12 flows and 20 s of traffic after the
// 25 s warmup, on a 400 × 400 field at degree 8.
func loadTestGrid(t *testing.T) liveGrid {
	return withFlows(smallGrid(t, "load", []float64{0.5, 6}, 20*time.Second, 400, 8), 12)
}

// TestLoadSweepViolationWorsensAndQoSWins: hop-count selection's violation
// ratio worsens with offered load, and the QoS-based selection violates no
// more than it at every load and strictly less at the top one.
func TestLoadSweepViolationWorsensAndQoSWins(t *testing.T) {
	res := runGrid(t, loadTestGrid(t), 1, 1, 1)
	for pt, load := range res.Points {
		for _, col := range res.Columns {
			if res.Cell(pt, col, "admitted").Mean() == 0 {
				t.Errorf("load %g %s admitted nothing", load, col)
			}
		}
		if qos, hop := res.Cell(pt, "qos/oracle", "viol").Mean(), res.Cell(pt, "hop/oracle", "viol").Mean(); qos > hop {
			t.Errorf("load %g: qos/oracle violation %.3f above hop/oracle %.3f", load, qos, hop)
		}
	}
	lowHop, highHop := res.Cell(0, "hop/oracle", "viol").Mean(), res.Cell(1, "hop/oracle", "viol").Mean()
	if !(highHop > lowHop) {
		t.Errorf("hop/oracle violation did not worsen with load: %.3f -> %.3f", lowHop, highHop)
	}
	if qos := res.Cell(1, "qos/oracle", "viol").Mean(); !(qos < highHop) {
		t.Errorf("at top load qos/oracle %.3f does not beat hop/oracle %.3f", qos, highHop)
	}
	out := render(t, res)
	for _, want := range []string{"# A8", "qos/oracle_viol", "hop/measured_p95ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestLoadSweepDeterministic(t *testing.T) {
	g := withFlows(smallGrid(t, "load", []float64{2}, 10*time.Second, 400, 8), 6)
	if a, b := render(t, runGrid(t, g, 1, 1, 1)), render(t, runGrid(t, g, 1, 1, 1)); a != b {
		t.Errorf("identical grids rendered differently:\n%s\nvs\n%s", a, b)
	}
}

func TestLoadSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunLiveGrid(ctx, "load", ScaleAxis{}, Options{Seed: 1, Runs: 1, Workers: 1}); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// overheadTestGrid is O1's CI-sized form: one mid-density point on a
// 400 × 400 field, 30 s of protocol.
func overheadTestGrid(t *testing.T) liveGrid {
	return smallGrid(t, "overhead", []float64{10}, 10*time.Second, 400, 0)
}

// TestOverheadSweepOptimizedBeatsBaseline is the control plane's acceptance
// check: with every optimisation on, control bytes drop below the baseline
// QOLSR plane's while delivery stays within one percentage point, and no
// single optimisation raises the control rate.
func TestOverheadSweepOptimizedBeatsBaseline(t *testing.T) {
	res := runGrid(t, overheadTestGrid(t), 1, 1, 1)
	base, all := res.Cell(0, "baseline", "ctlB/s").Mean(), res.Cell(0, "all", "ctlB/s").Mean()
	if base <= 0 {
		t.Fatal("baseline measured no control traffic")
	}
	if all >= base {
		t.Errorf("optimized control rate %.0f B/s not below baseline %.0f B/s", all, base)
	}
	baseDlv, allDlv := res.Cell(0, "baseline", "dlv").Mean(), res.Cell(0, "all", "dlv").Mean()
	if d := math.Abs(allDlv - baseDlv); d > 0.01 {
		t.Errorf("delivery gap %.3f exceeds 1%% (baseline %.3f, optimized %.3f)", d, baseDlv, allDlv)
	}
	for _, v := range []string{"delta", "fisheye", "minrelay"} {
		if got := res.Cell(0, v, "ctlB/s").Mean(); got > base {
			t.Errorf("%s control rate %.0f B/s above baseline %.0f B/s", v, got, base)
		}
	}
}

func TestOverheadSweepDeterministic(t *testing.T) {
	g := overheadTestGrid(t)
	if render(t, runGrid(t, g, 1, 1, 1)) != render(t, runGrid(t, g, 1, 1, 1)) {
		t.Error("identical seeds produced different overhead grids")
	}
}

// TestOverheadSweepEncoders exercises the table and the JSON document.
func TestOverheadSweepEncoders(t *testing.T) {
	g := overheadTestGrid(t)
	g.base.Duration -= 5 * time.Second
	res := &Result{Sweeps: []*Sweep{runGrid(t, g, 1, 1, 1)}}
	var tab bytes.Buffer
	if err := res.WriteTables(&tab); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# O1", "baseline_ctlB/s", "all_dlv"} {
		if !strings.Contains(tab.String(), want) {
			t.Errorf("table missing %q", want)
		}
	}
	var js bytes.Buffer
	if err := res.EncodeJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema string
		Sweeps []struct {
			ID      string
			Columns []string
			Points  []struct {
				Columns map[string]map[string]struct{ N int }
			}
		}
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "qolsr-sweep/v2" || len(doc.Sweeps) != 1 || doc.Sweeps[0].ID != "overhead" {
		t.Fatalf("schema %q sweeps %+v", doc.Schema, doc.Sweeps)
	}
	if sw := doc.Sweeps[0]; len(sw.Points) != len(g.Points) || !slices.Equal(sw.Columns, g.Columns) {
		t.Errorf("points = %d, columns %v; want %d, %v", len(sw.Points), sw.Columns, len(g.Points), g.Columns)
	}
	for _, p := range doc.Sweeps[0].Points {
		for _, col := range g.Columns {
			for _, q := range []string{"ctlB/s", "origB/s", "fwdB/s", "fwd", "dlv", "stretch"} {
				if p.Columns[col][q].N != 1 {
					t.Fatalf("column %s missing %q: %v", col, q, p.Columns[col])
				}
			}
		}
	}
}

func TestOverheadSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunLiveGrid(ctx, "overhead", ScaleAxis{}, Options{Seed: 1, Runs: 1, Workers: 1}); err == nil {
		t.Error("cancelled grid returned no error")
	}
}

// TestRunScaleSweep runs a small node-count grid twice: every point places
// exactly its node count, and the deterministic quantities (edges, events,
// heap high-water, delivery) agree across invocations — wall time is the
// only nondeterministic column.
func TestRunScaleSweep(t *testing.T) {
	first, second := runGrid(t, scaleTestGrid(t), 7, 1, 1), runGrid(t, scaleTestGrid(t), 7, 1, 1)
	for pt, n := range first.Points {
		if first.Cell(pt, "", "events").Mean() <= 0 {
			t.Errorf("%g nodes: no events executed", n)
		}
		if first.Cell(pt, "", "dlv").Mean() <= 0 {
			t.Errorf("%g nodes: zero delivery", n)
		}
		for _, q := range []Quantity{"edges", "events", "heap_hw", "dlv"} {
			if a, b := first.Cell(pt, "", q).Mean(), second.Cell(pt, "", q).Mean(); a != b {
				t.Errorf("%g nodes: %s differs across runs: %g vs %g", n, q, a, b)
			}
		}
	}
	out := render(t, first)
	for _, want := range []string{"nodes", "Mev/s", "30", "60"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestRunScaleSweepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunLiveGrid(ctx, "scale", ScaleAxis{Max: 50}, Options{Seed: 1, Runs: 1, Workers: 1}); err == nil {
		t.Fatal("cancelled grid returned nil error")
	}
}

// TestLiveSweepsWorkerDeterminism renders A4, A7, A8 and O1 serially and on
// four workers: tables and JSON must be byte-identical. S1 runs its cells
// in order and spends the workers on the rebuild barrier: every quantity
// but the wall-clock ones must agree.
func TestLiveSweepsWorkerDeterminism(t *testing.T) {
	grids := []liveGrid{
		smallGrid(t, "control", []float64{6, 9}, 4*time.Second, 300, 0),
		smallGrid(t, "loss", []float64{0, 0.2}, 4*time.Second, 300, 8),
		withFlows(smallGrid(t, "load", []float64{1, 4}, 5*time.Second, 300, 8), 4),
		smallGrid(t, "overhead", []float64{8}, 4*time.Second, 300, 0),
	}
	for _, g := range grids {
		if serial, parallel := render(t, runGrid(t, g, 1, 2, 1)), render(t, runGrid(t, g, 1, 2, 4)); serial != parallel {
			t.Errorf("%s differs between 1 and 4 workers:\n%s\nvs\n%s", g.ID, serial, parallel)
		}
	}
	serial, parallel := runGrid(t, scaleTestGrid(t), 1, 1, 1), runGrid(t, scaleTestGrid(t), 1, 1, 4)
	for pt := range serial.Points {
		for _, q := range []Quantity{"edges", "events", "heap_hw", "dlv"} {
			if a, b := serial.Cell(pt, "", q).Mean(), parallel.Cell(pt, "", q).Mean(); a != b {
				t.Errorf("scale point %d: %s %g at 1 worker, %g at 4", pt, q, a, b)
			}
		}
	}
}

// TestLiveGridsPairColumns: every column of one (point, run) runs on the
// same drawn field, at 1 and 4 workers, for every grid — equal node counts
// and an equal first-sample link count. Each run reads as run·10¹⁰ +
// nodes·10⁵ + links, so with two runs a column's minimum is its run 0 and
// its maximum its run 1.
func TestLiveGridsPairColumns(t *testing.T) {
	for _, name := range LiveGridNames() {
		g := smallGrid(t, name, []float64{8, 10}, 4*time.Second, 300, 8)
		switch name {
		case "loss":
			g.Points = []float64{0, 0.2}
		case "load":
			g = withFlows(g, 4)
			g.Points = []float64{1, 4}
		case "scale":
			g = scaleTestGrid(t)
		}
		g.quantities = []quantity{{name: "pair", format: "%.0f", read: func(c cellResult) float64 {
			return float64(c.Run)*1e10 + float64(c.Nodes)*1e5 + float64(c.Samples[0].Links)
		}}}
		for _, workers := range []int{1, 4} {
			res := runGrid(t, g, 5, 2, workers)
			for pt := range g.Points {
				ref := &res.cells[pt][0][0]
				if ref.N() != res.Runs {
					t.Fatalf("%s point %d: %d runs folded, want %d", name, pt, ref.N(), res.Runs)
				}
				for col := range g.Columns {
					a := &res.cells[pt][col][0]
					if a.Min() != ref.Min() || a.Max() != ref.Max() {
						t.Errorf("%s workers %d point %d: column %q read %.0f..%.0f, column %q %.0f..%.0f",
							name, workers, pt, g.Columns[col], a.Min(), a.Max(), g.Columns[0], ref.Min(), ref.Max())
					}
				}
			}
		}
	}
}
