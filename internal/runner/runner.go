// Package runner executes figure sweeps as parallel, cancellable,
// streaming pipelines. It is the engine behind the root package's
// Experiment/Runner API: the figures run on eval.RunFigures, the one cell
// loop over their distinct (density point, run) pairs, and every completed
// point is streamed as events while the sweep is still in flight.
//
// Results are deterministic for a given seed regardless of the worker
// budget: every run's RNG stream is derived from (seed, degree, run) alone
// and runs are folded in run order, so parallelism only changes wall-clock
// time, never numbers.
package runner

import (
	"context"
	"runtime"

	"qolsr/internal/eval"
)

// Options tunes a sweep without changing the figures' definitions.
type Options struct {
	// Workers bounds how many (density point, run) topologies evaluate at
	// once, across every figure of the sweep (default GOMAXPROCS).
	// Scenario execution spends it on replicate runs. At 1 every job runs
	// in order on one goroutine besides the caller's.
	Workers int
	// Runs is the per-point run count (default 100, the paper's).
	Runs int
	// Seed is the base RNG seed (default 1).
	Seed int64
	// Degrees, when non-empty, overrides every figure's density axis.
	Degrees []float64
	// Progress, when non-nil, receives a human-readable line per
	// completed density point. Calls are serialized; the callback never
	// runs concurrently with itself.
	Progress func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Runs <= 0 {
		o.Runs = 100
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// EventKind discriminates stream events.
type EventKind int

const (
	// EventPoint reports one completed density point.
	EventPoint EventKind = iota + 1
	// EventFigure reports a fully assembled figure.
	EventFigure
)

// Event is one incremental sweep outcome. Point events may arrive out of
// density order (points run in parallel); FigureIndex/PointIndex locate the
// result.
type Event struct {
	Kind        EventKind
	FigureID    string
	FigureIndex int
	// PointIndex and Degree identify the density point (EventPoint only).
	PointIndex int
	Degree     float64
	// Point is the completed density point (EventPoint only).
	Point *eval.PointResult
	// Figure is the assembled figure (EventFigure only).
	Figure *eval.FigureResult
}

// Result is a completed sweep.
type Result struct {
	// Figures holds one assembled result per requested figure, in
	// request order.
	Figures []*eval.FigureResult
}

// Stream starts the sweep and returns the event channel plus a wait
// function that blocks until completion and yields the final result. The
// channel is buffered for the whole sweep and closed when done, so a caller
// may drain it lazily or abandon it. Figures that share a density point
// (eval.RunFigures) get it from one simulation, and each gets its own
// EventPoint. Cancelling ctx stops outstanding work promptly; wait then
// returns ctx.Err(). A failing point stops the points not yet started, and
// wait returns the error of the first failing point in figure and density
// order. A figure without density points fails the sweep before it starts.
func Stream(ctx context.Context, figs []eval.Figure, opts Options) (<-chan Event, func() (*Result, error)) {
	opts = opts.withDefaults()
	figs = cloneFigures(figs, opts.Degrees)
	// One EventPoint per (figure, point) and one EventFigure per figure:
	// the buffer holds every send, so the hook never blocks.
	remaining := make([]int, len(figs))
	sends := len(figs)
	for fi, f := range figs {
		remaining[fi] = len(f.Degrees)
		sends += len(f.Degrees)
	}
	ch := make(chan Event, sends)
	var figures []*eval.FigureResult
	wait := goRun(func() (err error) {
		figures, err = eval.RunFigures(ctx, figs, opts.Runs, opts.Seed, opts.Workers, func(fr *eval.FigureResult, fi, pi int) {
			deg, point := fr.Figure.Degrees[pi], fr.Points[pi]
			ch <- Event{Kind: EventPoint, FigureID: fr.Figure.ID, FigureIndex: fi, PointIndex: pi, Degree: deg, Point: point}
			if opts.Progress != nil {
				opts.Progress("%s density %g done (%d runs, %.0f nodes avg)",
					fr.Figure.ID, deg, opts.Runs, point.Nodes.Mean())
			}
			if remaining[fi]--; remaining[fi] == 0 {
				ch <- Event{Kind: EventFigure, FigureID: fr.Figure.ID, FigureIndex: fi, Figure: fr}
			}
		})
		return err
	}, func() { close(ch) })
	return ch, func() (*Result, error) {
		if err := wait(); err != nil {
			return nil, err
		}
		return &Result{Figures: figures}, nil
	}
}

// goRun calls run on a goroutine of its own, so the streaming entry points
// return at once, and calls finish when run has returned — close event
// channels there. The returned wait blocks until then and yields run's
// error.
func goRun(run func() error, finish func()) (wait func() error) {
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		err = run()
		finish()
	}()
	return func() error {
		<-done
		return err
	}
}

// Run executes the sweep to completion, discarding the event stream.
func Run(ctx context.Context, figs []eval.Figure, opts Options) (*Result, error) {
	events, wait := Stream(ctx, figs, opts)
	for range events {
	}
	return wait()
}

// cloneFigures copies the figure slice (and degree axes) so option
// overrides never mutate caller-owned definitions.
func cloneFigures(figs []eval.Figure, degrees []float64) []eval.Figure {
	out := append([]eval.Figure(nil), figs...)
	for i := range out {
		if len(degrees) > 0 {
			out[i].Degrees = append([]float64(nil), degrees...)
		} else {
			out[i].Degrees = append([]float64(nil), out[i].Degrees...)
		}
	}
	return out
}
