// Package runner executes figure sweeps as parallel, cancellable,
// streaming pipelines. It is the engine behind the root package's
// Experiment/Runner API: every (figure, density) pair becomes one job, jobs
// run concurrently through par.For, each job additionally parallelizes its
// runs through eval.RunPoint, and completed points are streamed as events
// while the sweep is still in flight.
//
// Results are deterministic for a given seed regardless of the worker
// budget: every run's RNG stream is derived from (seed, degree, run) alone
// and points are assembled by index, so parallelism only changes wall-clock
// time, never numbers.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"qolsr/internal/eval"
	"qolsr/internal/metric"
	"qolsr/internal/par"
)

// Options tunes a sweep without changing the figures' definitions.
type Options struct {
	// Workers is the total parallelism budget, shared between concurrent
	// density points and the runs inside each point (default GOMAXPROCS).
	// Scenario execution spends it on replicate runs. At 1 every job runs
	// in order on one goroutine besides the caller's.
	Workers int
	// Runs is the per-point run count (default 100, the paper's).
	Runs int
	// Seed is the base RNG seed (default 1).
	Seed int64
	// WeightInterval overrides the link weight law (default [1,10]).
	WeightInterval metric.Interval
	// Degrees, when non-empty, overrides every figure's density axis.
	Degrees []float64
	// Progress, when non-nil, receives a human-readable line per
	// completed density point. Calls are serialized; the callback never
	// runs concurrently with itself.
	Progress func(format string, args ...any)
	// Quantities selects the series the encoders emit per protocol;
	// empty means each figure's own quantity.
	Quantities []eval.Quantity
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
	if o.WeightInterval == (metric.Interval{}) {
		o.WeightInterval = metric.DefaultInterval()
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
	// Quantities is the encoder series selection (see Options).
	Quantities []eval.Quantity
}

// Stream starts the sweep and returns the event channel plus a wait
// function that blocks until completion and yields the final result. The
// channel is buffered for the whole sweep and closed when done, so a caller
// may drain it lazily or abandon it. Cancelling ctx stops outstanding work
// promptly; wait then returns ctx.Err(). A failing point stops the points
// not yet started, and wait returns the error of the first failing point in
// figure and density order.
func Stream(ctx context.Context, figs []eval.Figure, opts Options) (<-chan Event, func() (*Result, error)) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	figs = cloneFigures(figs, opts.Degrees)

	type job struct {
		fi, pi int
		deg    float64
	}
	var jobs []job
	results := make([]*eval.FigureResult, len(figs))
	remaining := make([]int, len(figs))
	for fi, f := range figs {
		results[fi] = &eval.FigureResult{
			Figure: f,
			Runs:   opts.Runs,
			Points: make([]*eval.PointResult, len(f.Degrees)),
		}
		remaining[fi] = len(f.Degrees)
		for pi, deg := range f.Degrees {
			jobs = append(jobs, job{fi: fi, pi: pi, deg: deg})
		}
	}

	// Split the budget: pointWorkers density points in flight, each
	// running its topologies on runWorkers goroutines.
	pointWorkers := opts.Workers
	if pointWorkers > len(jobs) {
		pointWorkers = len(jobs)
	}
	if pointWorkers < 1 {
		pointWorkers = 1
	}
	runWorkers := opts.Workers / pointWorkers
	if runWorkers < 1 {
		runWorkers = 1
	}

	events := make(chan Event, len(jobs)+len(figs))
	var (
		mu         sync.Mutex
		progressMu sync.Mutex
	)
	runJob := func(runCtx context.Context, i int) error {
		j := jobs[i]
		fig := figs[j.fi]
		sc := fig.Scenario(j.deg, opts.Runs, opts.Seed, opts.WeightInterval)
		sc.Workers = runWorkers
		point, err := eval.RunPoint(runCtx, sc, fig.Protocols)
		if err != nil {
			return fmt.Errorf("runner: %s density %g: %w", fig.ID, j.deg, err)
		}
		mu.Lock()
		results[j.fi].Points[j.pi] = point
		remaining[j.fi]--
		figDone := remaining[j.fi] == 0
		mu.Unlock()
		events <- Event{
			Kind:        EventPoint,
			FigureID:    fig.ID,
			FigureIndex: j.fi,
			PointIndex:  j.pi,
			Degree:      j.deg,
			Point:       point,
		}
		if opts.Progress != nil {
			progressMu.Lock()
			opts.Progress("%s density %g done (%d runs, %.0f nodes avg)",
				fig.ID, j.deg, opts.Runs, point.Nodes.Mean())
			progressMu.Unlock()
		}
		if figDone {
			events <- Event{
				Kind:        EventFigure,
				FigureID:    fig.ID,
				FigureIndex: j.fi,
				Figure:      results[j.fi],
			}
		}
		return nil
	}
	wait := goFor(ctx, len(jobs), pointWorkers, runJob, func() { close(events) })
	return events, func() (*Result, error) {
		if err := wait(); err != nil {
			return nil, err
		}
		return &Result{Figures: results, Quantities: opts.Quantities}, nil
	}
}

// goFor runs par.For on a goroutine of its own, so the streaming entry
// points return at once, and calls finish when every job has returned —
// close event channels there. The returned wait blocks until then and
// yields par.For's error.
func goFor(ctx context.Context, n, workers int, job func(context.Context, int) error, finish func()) (wait func() error) {
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		err = par.For(ctx, n, workers, job)
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
