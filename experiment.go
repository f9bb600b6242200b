package qolsr

// The Experiment/Runner API: compose density sweeps from figures (by value
// or by name), run them as cancellable parallel pipelines, stream results
// point by point, and encode them as tables, CSV or JSON.
//
//	exp := qolsr.PaperExperiment()
//	res, err := exp.Run(ctx, qolsr.WithRuns(100), qolsr.WithWorkers(8),
//		qolsr.WithProgress(log.Printf))
//	...
//	res.EncodeJSON(os.Stdout)
//
// For incremental consumption, Stream delivers every completed density
// point (and every assembled figure) on a channel while the sweep is still
// running:
//
//	events, wait := exp.Stream(ctx)
//	for ev := range events {
//		if ev.Kind == qolsr.EventPoint { plot(ev.Degree, ev.Point) }
//	}
//	res, err := wait()

import (
	"context"

	"qolsr/internal/eval"
	"qolsr/internal/runner"
)

// Experiment definitions.
type (
	// Figure describes one density sweep: metric, axis, quantity and the
	// compared protocols.
	Figure = eval.Figure
	// Quantity selects which measured series a figure reports.
	Quantity = eval.Quantity
	// PointScenario is one density point, ready for RunPoint. (The name
	// Scenario belongs to the dynamic-network scenario programs of
	// scenario.go.)
	PointScenario = eval.Scenario
	// PointResult is one density point's outcome.
	PointResult = eval.PointResult
	// ProtocolPoint aggregates one protocol's behaviour at one density.
	ProtocolPoint = eval.ProtocolPoint
	// FigureResult is an assembled figure: one PointResult per density.
	FigureResult = eval.FigureResult
	// ProtocolSpec binds a selector to a routing policy.
	ProtocolSpec = eval.ProtocolSpec
	// ControlSweepOptions configures the A4 control-traffic experiment.
	ControlSweepOptions = eval.ControlSweepOptions
	// ControlSweepResult is Runner.ControlSweep's outcome.
	ControlSweepResult = eval.ControlSweepResult
	// LossSweepOptions configures the A7 delivery-vs-loss experiment.
	LossSweepOptions = eval.LossSweepOptions
	// LossSweepResult is Runner.LossSweep's outcome.
	LossSweepResult = eval.LossSweepResult
	// ScaleSweepOptions configures the S1 node-count scaling experiment.
	ScaleSweepOptions = eval.ScaleSweepOptions
	// ScaleSweepResult is Runner.ScaleSweep's outcome.
	ScaleSweepResult = eval.ScaleSweepResult
	// OverheadSweepOptions configures the O1 overhead-vs-density experiment.
	OverheadSweepOptions = eval.OverheadSweepOptions
	// OverheadSweepResult is Runner.OverheadSweep's outcome.
	OverheadSweepResult = eval.OverheadSweepResult
	// Results is a completed sweep with table/CSV/JSON encoders.
	Results = runner.Result
	// Event is one incremental sweep outcome (see Stream).
	Event = runner.Event
	// EventKind discriminates stream events.
	EventKind = runner.EventKind
)

// Reported quantities.
const (
	QuantitySetSize          = eval.QuantitySetSize
	QuantityOverhead         = eval.QuantityOverhead
	QuantityDelivery         = eval.QuantityDelivery
	QuantityDirectedDelivery = eval.QuantityDirectedDelivery
)

// Stream event kinds.
const (
	// EventPoint reports one completed density point.
	EventPoint = runner.EventPoint
	// EventFigure reports a fully assembled figure.
	EventFigure = runner.EventFigure
)

// Figure and protocol registries: everything an experiment is composed
// from resolves by name, so CLI and config-file users never touch code.
var (
	// PaperFigures returns Figs. 6-9 with the paper's parameters.
	PaperFigures = eval.PaperFigures
	// FigureByID resolves "fig6".."fig9".
	FigureByID = eval.FigureByID
	// Ablations returns the repository's ablation sweeps.
	Ablations = eval.Ablations
	// SweepByID resolves a figure or ablation by ID (ablations also
	// answer to their short form, e.g. "loopfix").
	SweepByID = eval.SweepByID
	// SweepIDs lists every composable sweep ID.
	SweepIDs = eval.SweepIDs
	// QuantityByName resolves a quantity's string form.
	QuantityByName = eval.QuantityByName
	// QuantityNames lists every reportable quantity's string form.
	QuantityNames = eval.QuantityNames
	// PaperProtocols returns the paper's three curves.
	PaperProtocols = eval.PaperProtocols
	// LoopFixAblation compares loop-fix variants (A1).
	LoopFixAblation = eval.LoopFixAblation
	// LocalLinksAblation measures source-local-link routing (A2).
	LocalLinksAblation = eval.LocalLinksAblation
	// RoutingPolicyAblation contrasts QOLSR routing readings (A6).
	RoutingPolicyAblation = eval.RoutingPolicyAblation
	// UpperBoundProtocols adds the full link-state bound.
	UpperBoundProtocols = eval.UpperBoundProtocols
	// MPRHeuristicAblation compares MPR heuristics as advertised sets.
	MPRHeuristicAblation = eval.MPRHeuristicAblation
)

// RunPoint evaluates protocols on independent topologies at one density.
// It honours ctx and parallelizes runs up to Scenario.Workers.
var RunPoint = eval.RunPoint

// Option tunes how a Runner executes an experiment.
type Option func(*runner.Options)

// WithWorkers bounds the total parallelism budget, shared between
// concurrent density points and the runs inside each point. The default is
// GOMAXPROCS; results are identical for any value.
func WithWorkers(n int) Option {
	return func(o *runner.Options) { o.Workers = n }
}

// WithRuns sets the per-point run count (default 100, the paper's).
func WithRuns(n int) Option {
	return func(o *runner.Options) { o.Runs = n }
}

// WithSeed sets the base RNG seed (default 1). Every run's stream is
// derived from (seed, degree, run), so a seed pins the whole sweep.
func WithSeed(seed int64) Option {
	return func(o *runner.Options) { o.Seed = seed }
}

// WithProgress installs a printf-style callback receiving one line per
// completed density point.
func WithProgress(f func(format string, args ...any)) Option {
	return func(o *runner.Options) { o.Progress = f }
}

// WithQuantities selects the series the JSON/CSV encoders emit per
// protocol; the default is each figure's own quantity.
func WithQuantities(qs ...Quantity) Option {
	return func(o *runner.Options) { o.Quantities = append([]Quantity(nil), qs...) }
}

// WithWeightInterval overrides the uniform link-weight law (default [1,10]).
func WithWeightInterval(iv Interval) Option {
	return func(o *runner.Options) { o.WeightInterval = iv }
}

// WithDegrees overrides every figure's density axis.
func WithDegrees(degrees ...float64) Option {
	return func(o *runner.Options) { o.Degrees = append([]float64(nil), degrees...) }
}

// Experiment is a composed set of figures to sweep. The zero value is
// empty; compose with NewExperiment, PaperExperiment or ExperimentByID.
type Experiment struct {
	figures []Figure
}

// NewExperiment composes an experiment from figure definitions.
func NewExperiment(figs ...Figure) *Experiment {
	return (&Experiment{}).Add(figs...)
}

// PaperExperiment returns the paper's full evaluation: Figs. 6-9.
func PaperExperiment() *Experiment {
	return NewExperiment(PaperFigures()...)
}

// ExperimentByID composes an experiment from sweep IDs ("fig6".."fig9",
// ablation IDs, or ablation short forms).
func ExperimentByID(ids ...string) (*Experiment, error) {
	e := &Experiment{}
	for _, id := range ids {
		fig, err := SweepByID(id)
		if err != nil {
			return nil, err
		}
		e.Add(fig)
	}
	return e, nil
}

// Add appends figures and returns the experiment for chaining.
func (e *Experiment) Add(figs ...Figure) *Experiment {
	e.figures = append(e.figures, figs...)
	return e
}

// Figures returns the composed figure definitions.
func (e *Experiment) Figures() []Figure {
	return append([]Figure(nil), e.figures...)
}

// Run executes the experiment to completion under ctx.
func (e *Experiment) Run(ctx context.Context, opts ...Option) (*Results, error) {
	return NewRunner(opts...).Run(ctx, e)
}

// Stream starts the experiment and returns the event channel plus a wait
// function yielding the final result. See Runner.Stream.
func (e *Experiment) Stream(ctx context.Context, opts ...Option) (<-chan Event, func() (*Results, error)) {
	return NewRunner(opts...).Stream(ctx, e)
}

// Runner executes experiments with a fixed option set, so one
// configuration (workers, seed, runs, progress sink) can drive many
// experiments.
type Runner struct {
	opts runner.Options
}

// NewRunner binds options into a reusable runner.
func NewRunner(opts ...Option) *Runner {
	r := &Runner{}
	for _, opt := range opts {
		opt(&r.opts)
	}
	return r
}

// Run executes the experiment to completion. Cancelling ctx stops
// outstanding work promptly and returns ctx.Err(). For a fixed seed the
// result is bit-identical regardless of WithWorkers.
func (r *Runner) Run(ctx context.Context, e *Experiment) (*Results, error) {
	return runner.Run(ctx, e.figures, r.opts)
}

// Stream starts the experiment and returns the event channel plus a wait
// function that blocks until completion and yields the final result. The
// channel is buffered for the whole sweep and closed when done. Point
// events may arrive out of density order; their indexes locate them.
func (r *Runner) Stream(ctx context.Context, e *Experiment) (<-chan Event, func() (*Results, error)) {
	return runner.Stream(ctx, e.figures, r.opts)
}

// liveDefaults is the defaults step of the live-stack sweeps: it fills a
// sweep's base seed from the runner's options where the sweep's own is
// unset, and, when runs is non-nil, its run count. The live stack is ~20x
// costlier per run than the offline harness, so the runner's run count is
// scaled down accordingly.
func (r *Runner) liveDefaults(seed *int64, runs *int) {
	if *seed == 0 {
		*seed = r.opts.Seed
	}
	if runs != nil && *runs <= 0 && r.opts.Runs > 0 {
		*runs = max(1, r.opts.Runs/20)
	}
}

// ControlSweep measures control-plane cost per selector and density on the
// live protocol stack (experiment A4), honouring ctx and the runner's worker
// budget, and its seed/runs/degrees options where the sweep's own are unset.
func (r *Runner) ControlSweep(ctx context.Context, opts ControlSweepOptions) (*ControlSweepResult, error) {
	r.liveDefaults(&opts.Seed, &opts.Runs)
	if len(opts.Degrees) == 0 {
		opts.Degrees = r.opts.Degrees
	}
	return eval.RunControlSweep(ctx, opts, r.opts.Workers)
}

// LossSweep measures data-plane delivery against medium packet loss on the
// live protocol stack (experiment A7), comparing oracle link weights with
// measured link quality. It honours ctx and the runner's worker budget, and
// its seed/runs options where the sweep's own are unset.
func (r *Runner) LossSweep(ctx context.Context, opts LossSweepOptions) (*LossSweepResult, error) {
	r.liveDefaults(&opts.Seed, &opts.Runs)
	return eval.RunLossSweep(ctx, opts, r.opts.Workers)
}

// ScaleSweep measures simulator throughput against node count on the live
// protocol stack (experiment S1): fields of growing population at constant
// density, reporting wall time, events executed and event throughput per
// point. It honours ctx and the runner's seed and workers (the rebuild
// barrier's budget) where the sweep's own are unset; Runs defaults to 1 —
// the axis is engine cost, not protocol statistics.
func (r *Runner) ScaleSweep(ctx context.Context, opts ScaleSweepOptions) (*ScaleSweepResult, error) {
	r.liveDefaults(&opts.Seed, nil)
	if opts.Workers == 0 {
		opts.Workers = r.opts.Workers
	}
	return eval.RunScaleSweep(ctx, opts)
}

// OverheadSweep measures control overhead against density per control-plane
// optimisation on the live protocol stack (experiment O1): the original
// QOLSR plane against delta TCs, fish-eye scoping, min-cover flood relays,
// and all three together — same fields, same seeds. It honours ctx and the
// runner's worker budget, and its seed/runs/degrees options where the
// sweep's own are unset.
func (r *Runner) OverheadSweep(ctx context.Context, opts OverheadSweepOptions) (*OverheadSweepResult, error) {
	r.liveDefaults(&opts.Seed, &opts.Runs)
	if len(opts.Degrees) == 0 {
		opts.Degrees = r.opts.Degrees
	}
	return eval.RunOverheadSweep(ctx, opts, r.opts.Workers)
}
