package eval

import (
	"context"
	"fmt"
	"sync"

	"qolsr/internal/scenario"
)

// The entry points behind the root package's Runner: figure sweeps
// (Stream, Run), live grids (RunLiveGrid) and a scenario's replicate runs
// (StreamScenario, RunScenario) all take one Options and run on the one
// cell loop, so for a fixed seed every result is bit-identical at any
// worker budget: each run's RNG streams derive from (seed, point, run)
// alone and runs fold in run order.

// Options tunes a run without changing what it runs.
type Options struct {
	// Workers bounds how many cells simulate at once across the whole run
	// (default GOMAXPROCS); it sets the cell loop's parallelism and nothing
	// inside a cell. At 1 every cell runs in order on the caller's
	// goroutine.
	Workers int
	// Runs is the run count per point when set: figures default to 100
	// (the paper's), a scenario to 3 replicates (the live stack is far
	// costlier per run), and a live grid scales it (RunLiveGrid).
	Runs int
	// Seed is the base RNG seed (default 1).
	Seed int64
	// Degrees, when non-empty, overrides every figure's density axis and
	// a density grid's.
	Degrees []float64
	// Progress, when non-nil, receives a human-readable line per
	// completed density point, grid axis point or replicate run. Calls
	// never overlap.
	Progress func(format string, args ...any)
}

// withDefaults is the one defaults step: runs is the run count of what
// runs when o names none.
func (o Options) withDefaults(runs int) Options {
	if o.Runs <= 0 {
		o.Runs = runs
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// EventKind discriminates figure stream events.
type EventKind int

const (
	// EventPoint reports one completed density point.
	EventPoint EventKind = iota + 1
	// EventFigure reports a figure whose every point has landed.
	EventFigure
)

// Event is one incremental sweep outcome. Point events may arrive out of
// density order (points run in parallel); FigureIndex and PointIndex
// locate the result.
type Event struct {
	Kind        EventKind
	FigureIndex int
	// PointIndex is the completed density point (EventPoint only). Until
	// the figure's EventFigure, read only that point of Sweep: the others
	// may still be landing.
	PointIndex int
	// Sweep is the figure's result.
	Sweep *Sweep
}

// Stream starts the figure sweep and returns the event channel plus a wait
// function that blocks until completion and yields the final result. The
// channel is buffered for the whole sweep and closed when done, so a caller
// may drain it lazily or abandon it. Figures that share a density point
// (runFigures) get it from one simulation, and each gets its own
// EventPoint. Cancelling ctx stops outstanding work promptly; wait then
// returns ctx.Err(). A failing point stops the points not yet started, and
// wait returns the error of the first failing point in figure and density
// order. A figure without density points or protocols, or with an unknown
// quantity, fails the sweep before it starts.
func Stream(ctx context.Context, figs []Figure, o Options) (<-chan Event, func() (*Result, error)) {
	o = o.withDefaults(100)
	figs = cloneFigures(figs, o.Degrees)
	// One EventPoint per (figure, point) and one EventFigure per figure:
	// the buffer holds every send, so the hook never blocks.
	remaining := make([]int, len(figs))
	sends := len(figs)
	for fi, f := range figs {
		remaining[fi] = len(f.Degrees)
		sends += len(f.Degrees)
	}
	ch := make(chan Event, sends)
	var sweeps []*Sweep
	wait := goRun(func() (err error) {
		sweeps, err = runFigures(ctx, figs, o, func(s *Sweep, fi, pi int) {
			ch <- Event{Kind: EventPoint, FigureIndex: fi, PointIndex: pi, Sweep: s}
			if o.Progress != nil {
				o.Progress("%s density %g done (%d runs, %.0f nodes avg)",
					s.ID, s.Points[pi], o.Runs, s.Cell(pi, s.Columns[0], quantityNodes).Mean())
			}
			if remaining[fi]--; remaining[fi] == 0 {
				ch <- Event{Kind: EventFigure, FigureIndex: fi, Sweep: s}
			}
		})
		return err
	}, func() { close(ch) })
	return ch, func() (*Result, error) {
		if err := wait(); err != nil {
			return nil, err
		}
		return &Result{Sweeps: sweeps}, nil
	}
}

// Run executes the figure sweep to completion, discarding the event stream.
func Run(ctx context.Context, figs []Figure, o Options) (*Result, error) {
	events, wait := Stream(ctx, figs, o)
	for range events {
	}
	return wait()
}

// cloneFigures copies the figure slice (and degree axes) so option
// overrides never mutate caller-owned definitions.
func cloneFigures(figs []Figure, degrees []float64) []Figure {
	out := append([]Figure(nil), figs...)
	for i := range out {
		if len(degrees) > 0 {
			out[i].Degrees = append([]float64(nil), degrees...)
		} else {
			out[i].Degrees = append([]float64(nil), out[i].Degrees...)
		}
	}
	return out
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

// ScenarioEventKind discriminates scenario stream events.
type ScenarioEventKind int

const (
	// ScenarioEventSample reports one measurement of one run, as soon as
	// it is taken.
	ScenarioEventSample ScenarioEventKind = iota + 1
	// ScenarioEventRun reports one completed replicate run.
	ScenarioEventRun
)

// ScenarioEvent is one incremental scenario outcome. Events from different
// runs interleave arbitrarily (runs execute in parallel); Run locates them.
type ScenarioEvent struct {
	Kind ScenarioEventKind
	// Run is the replicate index.
	Run int
	// Sample is the measurement (ScenarioEventSample only).
	Sample scenario.Sample
	// Result is the completed run (ScenarioEventRun only).
	Result *scenario.RunResult
}

// StreamScenario starts the scenario's replicate runs — one point × o.Runs
// runs × one column on the cell loop — and returns the event channel plus
// a wait function yielding the final result. The channel is buffered for
// the whole execution and closed when done, so a caller may drain it lazily
// or abandon it. Cancelling ctx stops outstanding work promptly; wait then
// returns ctx.Err().
func StreamScenario(ctx context.Context, sc scenario.Scenario, o Options) (<-chan ScenarioEvent, func() (*scenario.Result, error)) {
	o = o.withDefaults(3)
	sc = sc.WithDefaults()
	if err := sc.Validate(); err != nil {
		events := make(chan ScenarioEvent)
		close(events)
		return events, func() (*scenario.Result, error) { return nil, err }
	}
	events := make(chan ScenarioEvent, o.Runs*(len(sc.SampleTimes())+1))
	var (
		res        *scenario.Result
		progressMu sync.Mutex
	)
	wait := goRun(func() error {
		rows, err := liveSweep[*scenario.Result]{
			points: 1, runs: o.Runs, cols: 1, workers: o.Workers,
			point: func(int, int) *scenario.Result {
				return &scenario.Result{Scenario: sc, Seed: o.Seed, Runs: make([]*scenario.RunResult, o.Runs)}
			},
			cell: func(_, run, _ int) (func(*scenario.Result), error) {
				rr, err := scenario.Execute(ctx, sc, o.Seed, run, func(s scenario.Sample) {
					events <- ScenarioEvent{Kind: ScenarioEventSample, Run: run, Sample: s}
				})
				if err != nil {
					return nil, fmt.Errorf("eval: scenario %s run %d: %w", sc.Name, run, err)
				}
				events <- ScenarioEvent{Kind: ScenarioEventRun, Run: run, Result: rr}
				if o.Progress != nil {
					progressMu.Lock()
					o.Progress("scenario %s run %d done (%d nodes, %d samples)", sc.Name, run, rr.Nodes, len(rr.Samples))
					progressMu.Unlock()
				}
				return func(res *scenario.Result) { res.Runs[run] = rr }, nil
			},
		}.run(ctx)
		if err == nil {
			res = rows[0][0]
		}
		return err
	}, func() { close(events) })
	return events, func() (*scenario.Result, error) {
		if err := wait(); err != nil {
			return nil, err
		}
		return res, nil
	}
}

// RunScenario executes the scenario to completion, discarding the event
// stream.
func RunScenario(ctx context.Context, sc scenario.Scenario, o Options) (*scenario.Result, error) {
	events, wait := StreamScenario(ctx, sc, o)
	for range events {
	}
	return wait()
}
