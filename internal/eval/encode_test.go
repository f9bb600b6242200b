package eval

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"qolsr/internal/metric"
)

var update = flag.Bool("update", false, "rewrite the encoder golden files")

// syntheticResult builds a two-figure sweep with hand-fed accumulators so
// the golden files do not depend on simulation output.
func syntheticResult() *Result {
	mkPoint := func(deg float64, names []string, base float64) *PointResult {
		p := &PointResult{
			Degree:    deg,
			Protocols: make(map[string]*ProtocolPoint, len(names)),
		}
		p.Nodes.Add(100 + deg)
		p.Nodes.Add(104 + deg)
		for i, name := range names {
			pp := &ProtocolPoint{}
			for r := 0; r < 3; r++ {
				v := base + float64(i) + float64(r)*0.5
				pp.SetSize.Add(v)
				pp.Overhead.Add(v / 100)
				pp.Delivery.Add(1)
			}
			p.Protocols[name] = pp
		}
		return p
	}
	names := []string{"alpha", "beta"}
	protocols := []ProtocolSpec{{Name: "alpha"}, {Name: "beta"}}
	fig1 := &FigureResult{
		Figure: Figure{
			ID:        "fig-a",
			Title:     "synthetic set sizes",
			Metric:    metric.Bandwidth(),
			Degrees:   []float64{10, 20},
			Quantity:  QuantitySetSize,
			Protocols: protocols,
		},
		Runs:   3,
		Points: []*PointResult{mkPoint(10, names, 2), mkPoint(20, names, 3)},
	}
	fig2 := &FigureResult{
		Figure: Figure{
			ID:        "fig-b",
			Title:     "synthetic overheads",
			Metric:    metric.Delay(),
			Degrees:   []float64{10},
			Quantity:  QuantityOverhead,
			Protocols: protocols,
		},
		Runs:   3,
		Points: []*PointResult{mkPoint(10, names, 4)},
	}
	return &Result{Figures: []*FigureResult{fig1, fig2}}
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

func TestEncodeJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := syntheticResult().EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sweep.golden.json", buf.Bytes())
}

func TestEncodeCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := syntheticResult().EncodeCSV(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sweep.golden.csv", buf.Bytes())
}

func TestEncodeUnknownQuantity(t *testing.T) {
	res := syntheticResult()
	res.Figures[1].Figure.Quantity = "bogus"
	var buf bytes.Buffer
	if err := res.EncodeJSON(&buf); err == nil {
		t.Error("unknown quantity accepted by JSON encoder")
	}
	if err := res.EncodeCSV(&buf); err == nil {
		t.Error("unknown quantity accepted by CSV encoder")
	}
}

func TestWriteTables(t *testing.T) {
	var buf bytes.Buffer
	if err := syntheticResult().WriteTables(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig-a", "fig-b", "alpha", "density"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("tables missing %q:\n%s", want, buf.String())
		}
	}
}
