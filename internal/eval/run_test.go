package eval

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"qolsr/internal/metric"
	"qolsr/internal/stats"
)

// tinyFigure keeps engine tests fast: low density (≈ 95 nodes on the paper
// field), short axis, the paper's three protocols.
func tinyFigure(id string, degrees ...float64) Figure {
	return Figure{
		ID:        id,
		Title:     "tiny " + id,
		Metric:    metric.Bandwidth(),
		Degrees:   degrees,
		Quantity:  QuantitySetSize,
		Protocols: PaperProtocols(),
	}
}

func TestRunAssemblesAllPoints(t *testing.T) {
	figs := []Figure{tinyFigure("t1", 3, 4), tinyFigure("t2", 3)}
	res, err := Run(context.Background(), figs, Options{Runs: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sweeps) != 2 {
		t.Fatalf("sweeps = %d", len(res.Sweeps))
	}
	for fi, s := range res.Sweeps {
		if !slices.Equal(s.Points, figs[fi].Degrees) || len(s.cells) != len(figs[fi].Degrees) {
			t.Fatalf("figure %d points = %v (%d landed), want %v", fi, s.Points, len(s.cells), figs[fi].Degrees)
		}
		for pi := range s.Points {
			if s.cells[pi] == nil || s.Cell(pi, "fnbp", QuantitySetSize).N() == 0 {
				t.Fatalf("figure %d point %d missing", fi, pi)
			}
		}
	}
}

func TestStreamEmitsEveryEvent(t *testing.T) {
	figs := []Figure{tinyFigure("s1", 3, 4, 5)}
	events, wait := Stream(context.Background(), figs, Options{Runs: 1, Seed: 7, Workers: 4})
	points, figures := 0, 0
	seen := map[int]bool{}
	for ev := range events {
		switch ev.Kind {
		case EventPoint:
			points++
			if ev.Sweep == nil || ev.Sweep.ID != "s1" || ev.Sweep.cells[ev.PointIndex] == nil {
				t.Errorf("bad point event %+v", ev)
			}
			if seen[ev.PointIndex] {
				t.Errorf("duplicate point index %d", ev.PointIndex)
			}
			seen[ev.PointIndex] = true
		case EventFigure:
			figures++
			if ev.Sweep == nil || len(ev.Sweep.Points) != 3 || slices.ContainsFunc(ev.Sweep.cells, func(row [][]stats.Accumulator) bool { return row == nil }) {
				t.Errorf("bad figure event %+v", ev)
			}
		}
	}
	if points != 3 || figures != 1 {
		t.Errorf("events = %d points, %d figures; want 3, 1", points, figures)
	}
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}
}

// Two figures sharing a sweep (fig6/fig8 style: same metric and protocols,
// another quantity) are simulated once per shared density, yet the stream
// still carries one EventPoint per (figure, point) and one EventFigure per
// figure.
func TestStreamSharedPoints(t *testing.T) {
	size, over := tinyFigure("size", 3, 4), tinyFigure("over", 4, 5)
	over.Quantity = QuantityOverhead
	events, wait := Stream(context.Background(), []Figure{size, over}, Options{Runs: 1, Seed: 7, Workers: 2})
	points := map[[2]int]*stats.Accumulator{}
	figures := map[int]int{}
	for ev := range events {
		switch ev.Kind {
		case EventPoint:
			if _, dup := points[[2]int{ev.FigureIndex, ev.PointIndex}]; dup {
				t.Errorf("duplicate point event %s/%d", ev.Sweep.ID, ev.PointIndex)
			}
			points[[2]int{ev.FigureIndex, ev.PointIndex}] = &ev.Sweep.cells[ev.PointIndex][0][0]
		case EventFigure:
			figures[ev.FigureIndex]++
		}
	}
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 || len(figures) != 2 || figures[0] != 1 || figures[1] != 1 {
		t.Fatalf("events: %d points, figures %v; want 4 points, one event per figure", len(points), figures)
	}
	if points[[2]int{0, 1}] != points[[2]int{1, 0}] {
		t.Error("density 4 simulated once per figure")
	}
}

// A figure with no density points is rejected, naming it, before any point
// runs — it would otherwise never get its EventFigure.
func TestStreamRejectsFigureWithoutPoints(t *testing.T) {
	empty := tinyFigure("empty")
	events, wait := Stream(context.Background(), []Figure{empty, tinyFigure("one", 3)}, Options{Runs: 1})
	for ev := range events {
		t.Errorf("event %v %s before the sweep was rejected", ev.Kind, ev.Sweep.ID)
	}
	if _, err := wait(); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Errorf("err = %v, want one naming figure empty", err)
	}
}

// The worker budget must only change wall-clock time, never numbers: the
// encoded JSON is byte-identical across Workers values.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	figs := []Figure{tinyFigure("d1", 3, 4), tinyFigure("d2", 4)}
	encode := func(workers int) []byte {
		res, err := Run(context.Background(), figs, Options{Runs: 3, Seed: 5, Workers: workers})
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
			t.Errorf("workers=%d changed the result:\n%s\nvs serial:\n%s", workers, got, serial)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// A sweep big enough to still be in flight when the cancel lands.
	figs := []Figure{tinyFigure("c1", 5, 6, 7, 8), tinyFigure("c2", 5, 6, 7, 8)}
	events, wait := Stream(ctx, figs, Options{Runs: 50, Seed: 3, Workers: 2})
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	for range events {
	}
	start := time.Now()
	_, err := wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("wait took %v after cancel", elapsed)
	}
}

func TestRunPropagatesPointErrors(t *testing.T) {
	_, err := Run(context.Background(), []Figure{tinyFigure("bad", 5)}, Options{
		Runs:    1,
		Degrees: []float64{-1},
	})
	if err == nil {
		t.Fatal("invalid density accepted")
	}
}

func TestDegreeOverrideDoesNotMutateInput(t *testing.T) {
	fig := tinyFigure("o1", 3, 4, 5)
	res, err := Run(context.Background(), []Figure{fig}, Options{Runs: 1, Degrees: []float64{3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sweeps[0].Points) != 1 {
		t.Errorf("override ignored: %d points", len(res.Sweeps[0].Points))
	}
	if len(fig.Degrees) != 3 {
		t.Errorf("caller's figure mutated: %v", fig.Degrees)
	}
}
