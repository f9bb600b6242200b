package eval

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"qolsr/internal/metric"
	"qolsr/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the encoder golden files")

// syntheticResult builds a two-figure sweep with hand-fed accumulators so
// the golden files do not depend on simulation output. The series a figure
// run also measures but nobody fed here (hops, skipped) encode as empty.
func syntheticResult() *Result {
	protocols := []ProtocolSpec{{Name: "alpha"}, {Name: "beta"}}
	figure := func(fig Figure, bases ...float64) *Sweep {
		s := fig.sweep(3, 1)
		for pi, deg := range fig.Degrees {
			s.cells[pi] = make([][]stats.Accumulator, len(protocols))
			for c := range protocols {
				s.cells[pi][c] = make([]stats.Accumulator, len(s.quantities))
				cell := func(q Quantity) *stats.Accumulator { return s.Cell(pi, protocols[c].Name, q) }
				cell(quantityNodes).Add(100 + deg)
				cell(quantityNodes).Add(104 + deg)
				for r := 0; r < 3; r++ {
					v := bases[pi] + float64(c) + float64(r)*0.5
					cell(QuantitySetSize).Add(v)
					cell(QuantityOverhead).Add(v / 100)
					cell(QuantityDelivery).Add(1)
				}
			}
		}
		return s
	}
	return &Result{Sweeps: []*Sweep{
		figure(Figure{ID: "fig-a", Title: "synthetic set sizes", Metric: metric.Bandwidth(), Degrees: []float64{10, 20}, Quantity: QuantitySetSize, Protocols: protocols}, 2, 3),
		figure(Figure{ID: "fig-b", Title: "synthetic overheads", Metric: metric.Delay(), Degrees: []float64{10}, Quantity: QuantityOverhead, Protocols: protocols}, 4),
	}}
}

// syntheticGrids builds two live-grid-shaped sweeps by hand: A7's shape
// (named columns, one untabled quantity, a cell without samples) and S1's
// (one unnamed column, one run).
func syntheticGrids() *Result {
	loss := &Sweep{
		ID: "grid-a", Title: "G1 — synthetic loss grid", Axis: "loss", Points: []float64{0, 0.25},
		Columns: []string{"oracle", "measured"}, Runs: 2, Seed: 5,
		quantities: []quantity{{name: "dlv", format: "%.3f"}, {name: "ctlB/s", format: "%.0f"}, {name: "lost"}},
	}
	loss.cells = emptyCells(loss)
	for pt := range loss.Points {
		for c := range loss.Columns {
			for r := 0; r < 2; r++ {
				x := float64(pt*10+c*3+r) / 40
				loss.cells[pt][c][0].Add(1 - x)
				loss.cells[pt][c][1].Add(900 + 100*x)
				if pt > 0 {
					loss.cells[pt][c][2].Add(x / 2)
				}
			}
		}
	}
	scale := &Sweep{
		ID: "grid-b", Title: "G2 — synthetic scale grid", Axis: "nodes", Points: []float64{50, 100},
		Columns: []string{""}, Runs: 1, Seed: 5,
		quantities: []quantity{{name: "edges", format: "%.0f"}, {name: "Mev/s", format: "%.2f"}},
	}
	scale.cells = emptyCells(scale)
	for pt, n := range scale.Points {
		scale.cells[pt][0][0].Add(5 * n)
		scale.cells[pt][0][1].Add(1.5 - n/1000)
	}
	return &Result{Sweeps: []*Sweep{loss, scale}}
}

// emptyCells returns the sweep's cells without samples.
func emptyCells(s *Sweep) [][][]stats.Accumulator {
	cells := make([][][]stats.Accumulator, len(s.Points))
	for pt := range cells {
		cells[pt] = make([][]stats.Accumulator, len(s.Columns))
		for c := range cells[pt] {
			cells[pt][c] = make([]stats.Accumulator, len(s.quantities))
		}
	}
	return cells
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./internal/eval -run Golden -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// checkGoldens checks one form of the synthetic figure and grid results
// against testdata/sweep.golden.<ext> and grid.golden.<ext>.
func checkGoldens(t *testing.T, ext string, form func(*Result) func(io.Writer) error) {
	for name, res := range map[string]*Result{"sweep": syntheticResult(), "grid": syntheticGrids()} {
		var buf bytes.Buffer
		if err := form(res)(&buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, name+".golden."+ext, buf.Bytes())
	}
}

func TestEncodeJSONGolden(t *testing.T) {
	checkGoldens(t, "json", func(r *Result) func(io.Writer) error { return r.EncodeJSON })
}

func TestEncodeCSVGolden(t *testing.T) {
	checkGoldens(t, "csv", func(r *Result) func(io.Writer) error { return r.EncodeCSV })
}

// TestEncodeUnknownQuantity: the encoders walk each sweep's own quantity
// list, so a figure headlining a quantity no run measures never reaches
// them — Run rejects it, naming it, and returns no result to encode — while
// a live grid's own series, outside QuantityNames, encode under their names.
func TestEncodeUnknownQuantity(t *testing.T) {
	bad := tinyFigure("bad", 3)
	bad.Quantity = "bogus"
	res, err := Run(context.Background(), []Figure{tinyFigure("good", 3), bad}, Options{Runs: 1, Seed: 1, Workers: 1})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("bogus")) {
		t.Errorf("err = %v, want one naming the unknown quantity", err)
	}
	if res != nil {
		t.Errorf("result %v returned beside the error", res)
	}

	grids := syntheticGrids()
	var js, cs bytes.Buffer
	if err := grids.EncodeJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := grids.EncodeCSV(&cs); err != nil {
		t.Fatal(err)
	}
	for _, s := range grids.Sweeps {
		for _, q := range s.quantities {
			if !bytes.Contains(js.Bytes(), []byte(`"`+string(q.name)+`"`)) {
				t.Errorf("JSON lacks %s's quantity %q", s.ID, q.name)
			}
			if !bytes.Contains(cs.Bytes(), []byte(","+string(q.name)+",")) {
				t.Errorf("CSV lacks %s's quantity %q", s.ID, q.name)
			}
		}
	}
}

func TestWriteTablesGolden(t *testing.T) {
	checkGoldens(t, "txt", func(r *Result) func(io.Writer) error { return r.WriteTables })
}

func TestWriteTables(t *testing.T) {
	var buf bytes.Buffer
	if err := syntheticResult().WriteTables(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig-a", "fig-b", "alpha", "density", "beta_delivery"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("tables missing %q:\n%s", want, buf.String())
		}
	}
}

// checkEncodersAgree: the CSV form has one row per (sweep, point, column,
// quantity) of the JSON document, and every row's numbers equal its JSON
// cell's bit for bit.
func checkEncodersAgree(t *testing.T, res *Result) {
	t.Helper()
	var js, cs bytes.Buffer
	if err := res.EncodeJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := res.EncodeCSV(&cs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Sweeps []struct {
			ID         string
			Axis       string
			Columns    []string
			Quantities []string
			Points     []struct {
				X       float64
				Columns map[string]map[string]stat
			}
		}
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&cs).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	num := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	next := 1
	for _, s := range doc.Sweeps {
		for _, p := range s.Points {
			for _, col := range s.Columns {
				for _, q := range s.Quantities {
					if next >= len(rows) {
						t.Fatalf("CSV ends before %s x=%g %q %s", s.ID, p.X, col, q)
					}
					row, want := rows[next], p.Columns[col][q]
					next++
					n, _ := strconv.Atoi(row[8])
					got := stat{num(row[5]), num(row[6]), num(row[7]), n}
					if row[0] != s.ID || row[1] != s.Axis || num(row[2]) != p.X || row[3] != col || row[4] != q || got != want {
						t.Errorf("CSV row %q, JSON %s x=%g %q %s = %+v", row, s.ID, p.X, col, q, want)
					}
				}
			}
		}
	}
	if next != len(rows) || next == 1 {
		t.Errorf("CSV has %d rows, JSON %d cells", len(rows)-1, next-1)
	}
}

// TestEncodersAgree holds the JSON and CSV forms to each other on one
// figure sweep and one live grid, both simulated.
func TestEncodersAgree(t *testing.T) {
	figs, err := Run(context.Background(), []Figure{tinyFigure("agree", 3, 4)}, Options{Runs: 2, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkEncodersAgree(t, figs)
	grid := runGrid(t, smallGrid(t, "loss", []float64{0, 0.3}, 4*time.Second, 300, 8), 2, 2, 1)
	checkEncodersAgree(t, &Result{Sweeps: []*Sweep{grid}})
	checkEncodersAgree(t, syntheticResult())
	checkEncodersAgree(t, syntheticGrids())
}
