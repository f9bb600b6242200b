package eval

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"qolsr/internal/geom"
)

// smallLossOpts keeps the live-stack sweep affordable in tests.
func smallLossOpts() LossSweepOptions {
	return LossSweepOptions{
		Losses:  []float64{0, 0.3},
		Runs:    2,
		SimTime: 30 * time.Second,
		Seed:    1,
		Field:   geom.Field{Width: 300, Height: 300},
		Degree:  8,
	}
}

func TestRunLossSweep(t *testing.T) {
	res, err := RunLossSweep(context.Background(), smallLossOpts(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || len(res.Points[0]) != len(LossModes()) {
		t.Fatalf("points shape = %dx%d, want 2x%d", len(res.Points), len(res.Points[0]), len(LossModes()))
	}
	for li, row := range res.Points {
		for _, p := range row {
			if p.Delivery.N() == 0 {
				t.Errorf("loss %g mode %s: no delivery samples", p.Loss, p.Mode)
			}
			if d := p.Delivery.Mean(); d < 0 || d > 1 {
				t.Errorf("loss %g mode %s: delivery %g outside [0,1]", p.Loss, p.Mode, d)
			}
		}
		// At zero loss nothing should be lost in flight; at 0.3 the medium
		// must visibly bite.
		for _, p := range row {
			if li == 0 && p.LostFrac.Mean() != 0 {
				t.Errorf("zero-loss point lost %g of data frames", p.LostFrac.Mean())
			}
			if li == 1 && p.LostFrac.Mean() == 0 {
				t.Errorf("30%%-loss point (%s) lost nothing", p.Mode)
			}
		}
	}
	// Delivery at heavy loss must not beat delivery at zero loss (paired
	// fields, same seeds).
	for mi := range LossModes() {
		if res.Points[1][mi].Delivery.Mean() > res.Points[0][mi].Delivery.Mean() {
			t.Errorf("mode %s: delivery rose with loss (%g > %g)", res.Modes[mi],
				res.Points[1][mi].Delivery.Mean(), res.Points[0][mi].Delivery.Mean())
		}
	}

	var buf bytes.Buffer
	if err := res.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"A7", "oracle_dlv", "measured_dlv", "0.3"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestRunLossSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunLossSweep(ctx, smallLossOpts(), 1); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
