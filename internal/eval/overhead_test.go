package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"qolsr/internal/geom"
)

// smokeOverheadOptions is the CI-sized O1 configuration: one mid-density
// point, one field, a short window — enough for the control planes to
// settle and diverge, small enough for a test.
func smokeOverheadOptions() OverheadSweepOptions {
	return OverheadSweepOptions{
		Degrees: []float64{10},
		Runs:    1,
		SimTime: 30 * time.Second,
		Field:   geom.Field{Width: 400, Height: 400},
		Seed:    1,
	}
}

// TestOverheadSweepOptimizedBeatsBaseline is the deterministic acceptance
// check behind the PR's claim: with every optimisation on, control bytes
// drop below the baseline QOLSR plane while delivery stays within a
// percentage point — on the same field and jitter seed.
func TestOverheadSweepOptimizedBeatsBaseline(t *testing.T) {
	res, err := RunOverheadSweep(context.Background(), smokeOverheadOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || len(res.Points[0]) != len(overheadVariants()) {
		t.Fatalf("unexpected result shape: %d rows", len(res.Points))
	}
	byVariant := map[string]*OverheadPoint{}
	for _, p := range res.Points[0] {
		byVariant[p.Variant] = p
	}
	base, all := byVariant["baseline"], byVariant["all"]
	if base == nil || all == nil {
		t.Fatal("baseline or all variant missing")
	}
	if base.ControlBytesPerSec.Mean() <= 0 {
		t.Fatal("baseline measured no control traffic")
	}
	if got, want := all.ControlBytesPerSec.Mean(), base.ControlBytesPerSec.Mean(); got >= want {
		t.Errorf("optimized control rate %.0f B/s not below baseline %.0f B/s", got, want)
	}
	if d := math.Abs(all.Delivery.Mean() - base.Delivery.Mean()); d > 0.01 {
		t.Errorf("delivery gap %.3f exceeds 1%% (baseline %.3f, optimized %.3f)",
			d, base.Delivery.Mean(), all.Delivery.Mean())
	}
	// Each single optimisation must at least not raise the control rate:
	// they are independent savings, not trade-offs against each other.
	for _, v := range []string{"delta", "fisheye", "minrelay"} {
		p := byVariant[v]
		if p == nil {
			t.Fatalf("variant %s missing", v)
		}
		if p.ControlBytesPerSec.Mean() > base.ControlBytesPerSec.Mean() {
			t.Errorf("%s control rate %.0f B/s above baseline %.0f B/s",
				v, p.ControlBytesPerSec.Mean(), base.ControlBytesPerSec.Mean())
		}
	}
}

// TestOverheadSweepDeterministic pins the sweep's bit-level reproducibility
// for a fixed seed, which the BENCH_overhead.json artifact depends on.
func TestOverheadSweepDeterministic(t *testing.T) {
	encode := func() string {
		res, err := RunOverheadSweep(context.Background(), smokeOverheadOptions(), 1)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := res.EncodeJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := encode(), encode()
	if a != b {
		t.Error("identical seeds produced different overhead sweeps")
	}
}

// TestOverheadSweepEncoders exercises the table and JSON forms.
func TestOverheadSweepEncoders(t *testing.T) {
	opts := smokeOverheadOptions()
	opts.SimTime = 15 * time.Second
	res, err := RunOverheadSweep(context.Background(), opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	var tab bytes.Buffer
	if err := res.WriteTable(&tab); err != nil {
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
		Experiment string `json:"experiment"`
		Variants   []string
		Points     []map[string]any
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Experiment != "overhead-vs-density" {
		t.Errorf("experiment = %q", doc.Experiment)
	}
	if want := len(opts.Degrees) * len(overheadVariants()); len(doc.Points) != want {
		t.Errorf("points = %d, want %d", len(doc.Points), want)
	}
	for _, p := range doc.Points {
		for _, k := range []string{"ctrl_bps", "tc_orig_bps", "tc_fwd_bps", "delivery"} {
			if _, ok := p[k]; !ok {
				t.Fatalf("point missing %q: %v", k, p)
			}
		}
	}
}

// TestOverheadSweepCancellation verifies ctx stops the sweep between
// simulations.
func TestOverheadSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunOverheadSweep(ctx, smokeOverheadOptions(), 1); err == nil {
		t.Error("cancelled sweep returned no error")
	}
}
