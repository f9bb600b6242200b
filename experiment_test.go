package qolsr_test

// Tests of the Runner API: sweeps by name, streaming, context
// cancellation, and bit-identical results across worker budgets.

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"qolsr"
)

// tinyFigure is Fig. 6, which the tests sweep over a few low
// densities — small enough for unit tests, real enough to exercise the
// parallel pipeline.
func tinyFigure(t *testing.T) qolsr.Figure {
	t.Helper()
	fig, err := qolsr.FigureByID("fig6")
	if err != nil {
		t.Fatal(err)
	}
	return fig
}

// Sweeps resolve by ID, short form included, and a Runner sweeps several
// in the order given.
func TestSweepByID(t *testing.T) {
	var figs []qolsr.Figure
	for _, id := range []string{"fig6", "ablation-mprs", "policy"} {
		fig, err := qolsr.SweepByID(id)
		if err != nil {
			t.Fatal(err)
		}
		figs = append(figs, fig)
	}
	if figs[0].ID != "fig6" || figs[1].ID != "ablation-mprs" || figs[2].ID != "ablation-policy" {
		t.Errorf("resolved figures = %+v", figs)
	}
	if _, err := qolsr.SweepByID("nope"); err == nil {
		t.Error("unknown sweep ID accepted")
	}
	res, err := qolsr.NewRunner(qolsr.WithRuns(1), qolsr.WithDegrees(4)).Run(context.Background(), figs[:2]...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sweeps) != 2 || res.Sweeps[0].ID != "fig6" || res.Sweeps[1].ID != "ablation-mprs" {
		t.Errorf("swept %d figures, want fig6 then ablation-mprs", len(res.Sweeps))
	}
}

func TestExperimentRunAndEncoders(t *testing.T) {
	res, err := qolsr.NewRunner(qolsr.WithRuns(2), qolsr.WithSeed(9), qolsr.WithDegrees(3, 4)).
		Run(context.Background(), tinyFigure(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sweeps) != 1 || len(res.Sweeps[0].Points) != 2 {
		t.Fatalf("result shape wrong: %+v", res.Sweeps)
	}

	var jsonBuf bytes.Buffer
	if err := res.EncodeJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"schema": "qolsr-sweep/v2"`, `"id": "fig6"`, `"set-size"`, `"delivery"`, `"fnbp"`} {
		if !strings.Contains(jsonBuf.String(), want) {
			t.Errorf("JSON missing %q:\n%s", want, jsonBuf.String())
		}
	}
	var csvBuf bytes.Buffer
	if err := res.EncodeCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	// Header + 2 densities × 3 protocols × 6 quantities (set size,
	// overhead, delivery, hops, nodes, skipped).
	if len(lines) != 37 {
		t.Errorf("CSV lines = %d, want 37:\n%s", len(lines), csvBuf.String())
	}
}

func TestExperimentStreamDeliversIncrementally(t *testing.T) {
	events, wait := qolsr.NewRunner(qolsr.WithRuns(1), qolsr.WithSeed(4), qolsr.WithDegrees(3, 4, 5), qolsr.WithWorkers(3)).
		Stream(context.Background(), tinyFigure(t))
	points, figures := 0, 0
	for ev := range events {
		switch ev.Kind {
		case qolsr.EventPoint:
			points++
			if ev.Sweep == nil || ev.Sweep.Cell(ev.PointIndex, "fnbp", qolsr.QuantitySetSize).N() == 0 {
				t.Error("point event without its point")
			}
		case qolsr.EventFigure:
			figures++
		}
	}
	if points != 3 || figures != 1 {
		t.Errorf("stream = %d points, %d figures; want 3, 1", points, figures)
	}
	res, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Sweeps[0].Points {
		if res.Sweeps[0].Cell(i, "fnbp", qolsr.QuantitySetSize).N() == 0 {
			t.Errorf("point %d missing from final result", i)
		}
	}
}

// Cancelling mid-sweep must return promptly with ctx.Err().
func TestExperimentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	fig := tinyFigure(t)
	start := time.Now()
	errCh := make(chan error, 1)
	go func() {
		// Enough work (8 points × 200 runs) to be mid-flight when the
		// cancel lands.
		_, err := qolsr.NewRunner(qolsr.WithRuns(200), qolsr.WithWorkers(2),
			qolsr.WithDegrees(5, 6, 7, 8, 9, 10, 11, 12)).Run(ctx, fig)
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return promptly after cancel")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

// Same seed, different worker budgets: the encoded JSON must be
// byte-identical — parallelism only changes wall-clock time.
func TestExperimentDeterministicAcrossWorkers(t *testing.T) {
	encode := func(workers int) []byte {
		res, err := qolsr.NewRunner(qolsr.WithRuns(3), qolsr.WithSeed(6), qolsr.WithDegrees(3, 4), qolsr.WithWorkers(workers)).
			Run(context.Background(), tinyFigure(t))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := encode(1)
	for _, workers := range []int{2, 8} {
		if got := encode(workers); !bytes.Equal(serial, got) {
			t.Errorf("workers=%d changed the result", workers)
		}
	}
}

func TestRunnerControlSweep(t *testing.T) {
	r := qolsr.NewRunner(qolsr.WithSeed(3), qolsr.WithRuns(20), qolsr.WithDegrees(6))
	res, err := r.LiveGrid(context.Background(), "control", qolsr.ScaleAxis{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range []string{"fnbp", "topofilter", "qolsr"} {
		if tc := res.Sweeps[0].Cell(0, sel, "tcB/s"); tc == nil || tc.N() != 1 || tc.Mean() <= 0 {
			t.Errorf("%s: no single-run TC rate at density 6", sel)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.LiveGrid(ctx, "control", qolsr.ScaleAxis{}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled control grid err = %v", err)
	}
	if _, err := r.LiveGrid(context.Background(), "mprs", qolsr.ScaleAxis{}); err == nil {
		t.Error("a figure-harness ablation ran as a live grid")
	}
}

func TestPublicRegistries(t *testing.T) {
	for _, name := range []string{"qos-optimal", "minhop-then-qos"} {
		p, err := qolsr.PolicyByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.String() != name {
			t.Errorf("%s round-trip = %s", name, p)
		}
	}
	if _, err := qolsr.PolicyByName("bogus"); err == nil {
		t.Error("unknown policy accepted")
	}
	if len(qolsr.QuantityNames()) != 4 {
		t.Errorf("quantities = %v", qolsr.QuantityNames())
	}
	if len(qolsr.SweepIDs()) != 10 {
		t.Errorf("sweep IDs = %v", qolsr.SweepIDs())
	}
	if len(qolsr.Ablations()) != 6 {
		t.Errorf("ablations = %d", len(qolsr.Ablations()))
	}
}
