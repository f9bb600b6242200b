package eval

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"qolsr/internal/geom"
)

// smallLoadOptions keeps the sweep affordable for the test suite while
// preserving the contended-radio regime the experiment exists for.
func smallLoadOptions() LoadSweepOptions {
	return LoadSweepOptions{
		Loads:   []float64{0.5, 6},
		Flows:   12,
		Runs:    1,
		SimTime: 20 * time.Second,
		Field:   geom.Field{Width: 400, Height: 400},
		Degree:  8,
		Seed:    1,
	}
}

func TestLoadSweepViolationWorsensAndQoSWins(t *testing.T) {
	res, err := RunLoadSweep(context.Background(), smallLoadOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || len(res.Points[0]) != 4 {
		t.Fatalf("points shape %dx%d, want 2x4", len(res.Points), len(res.Points[0]))
	}
	col := func(name string) int {
		for i, c := range res.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("column %s missing from %v", name, res.Columns)
		return -1
	}
	qosO, hopO := col("qos/oracle"), col("hop/oracle")
	qosM, hopM := col("qos/measured"), col("hop/measured")

	for li, row := range res.Points {
		for _, p := range row {
			if p.Admitted.Mean() == 0 {
				t.Errorf("load %g %s/%s admitted nothing", p.Load, p.Selection, p.Mode)
			}
			_ = li
		}
	}

	// The QoS-violation ratio worsens with offered load: under hop-count
	// selection the jump from half-rate to 6x saturates narrow links.
	lowHop := res.Points[0][hopO].Violation.Mean()
	highHop := res.Points[1][hopO].Violation.Mean()
	if !(highHop > lowHop) {
		t.Errorf("hop/oracle violation did not worsen with load: %.3f -> %.3f", lowHop, highHop)
	}
	// The paper's QoS-based selection routes around narrow links, so at
	// equal offered load it violates no more than hop-count selection —
	// and strictly less once the hop paths saturate.
	for li, row := range res.Points {
		if row[qosO].Violation.Mean() > row[hopO].Violation.Mean() {
			t.Errorf("load %g: qos/oracle violation %.3f above hop/oracle %.3f",
				res.Options.Loads[li], row[qosO].Violation.Mean(), row[hopO].Violation.Mean())
		}
	}
	if !(res.Points[1][qosO].Violation.Mean() < highHop) {
		t.Errorf("at top load qos/oracle %.3f does not beat hop/oracle %.3f",
			res.Points[1][qosO].Violation.Mean(), highHop)
	}
	// Both sensing modes are reported alongside.
	if res.Points[1][qosM].Admitted.Mean() == 0 || res.Points[1][hopM].Admitted.Mean() == 0 {
		t.Error("measured-mode columns empty")
	}

	var buf bytes.Buffer
	if err := res.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"A8", "qos/oracle_viol", "hop/measured_p95ms"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestLoadSweepDeterministic(t *testing.T) {
	opts := smallLoadOptions()
	opts.Loads = []float64{2}
	opts.Flows = 6
	opts.SimTime = 10 * time.Second
	run := func() string {
		res, err := RunLoadSweep(context.Background(), opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical sweeps rendered differently:\n%s\nvs\n%s", a, b)
	}
}

func TestLoadSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunLoadSweep(ctx, smallLoadOptions(), 1); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
