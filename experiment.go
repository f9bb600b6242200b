package qolsr

// The Runner API: run density sweeps — figures and ablations, by value or
// by name — on a Runner as cancellable parallel pipelines, stream results
// point by point, and encode them as tables, CSV or JSON.
//
//	r := qolsr.NewRunner(qolsr.WithRuns(100), qolsr.WithWorkers(8),
//		qolsr.WithProgress(log.Printf))
//	res, err := r.Run(ctx, qolsr.PaperFigures()...)
//	...
//	res.EncodeJSON(os.Stdout)
//
// For incremental consumption, Stream delivers every completed density
// point (and every completed figure) on a channel while the sweep is still
// running:
//
//	events, wait := r.Stream(ctx, fig)
//	for ev := range events {
//		if ev.Kind == qolsr.EventPoint { plot(ev.Sweep, ev.PointIndex) }
//	}
//	res, err := wait()
//
// One density point is a Figure with one degree.

import (
	"context"

	"qolsr/internal/eval"
)

// Sweep definitions.
type (
	// Figure describes one density sweep: metric, axis, quantity and the
	// compared protocols.
	Figure = eval.Figure
	// Quantity selects which measured series a figure reports.
	Quantity = eval.Quantity
	// ProtocolSpec binds a selector to a routing policy.
	ProtocolSpec = eval.ProtocolSpec
	// ScaleAxis cuts S1's node-count axis and picks its control plane.
	ScaleAxis = eval.ScaleAxis
	// Sweep is one completed figure, static ablation or live grid: one
	// accumulator per (axis point, column, quantity).
	Sweep = eval.Sweep
	// Results is a completed run, one Sweep per request, with table, CSV
	// and JSON ("qolsr-sweep/v2") encoders.
	Results = eval.Result
	// Event is one incremental sweep outcome (see Stream).
	Event = eval.Event
	// EventKind discriminates stream events.
	EventKind = eval.EventKind
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
	EventPoint = eval.EventPoint
	// EventFigure reports a figure whose every point has landed.
	EventFigure = eval.EventFigure
)

// Figure and protocol registries: every sweep resolves by name, so CLI and
// config-file users never touch code.
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
	// LiveGridNames lists the live-stack ablations Runner.LiveGrid runs.
	LiveGridNames = eval.LiveGridNames
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

// Option tunes how a Runner runs.
type Option func(*eval.Options)

// WithWorkers sets the worker budget (default GOMAXPROCS): how many cells
// — a density point's run, a live-grid cell, a scenario replicate —
// simulate at once, across everything one call runs. It sets cells only:
// each cell simulates on one goroutine. Results are identical for any
// value.
func WithWorkers(n int) Option {
	return func(o *eval.Options) { o.Workers = n }
}

// WithRuns sets the per-point run count (default 100, the paper's).
func WithRuns(n int) Option {
	return func(o *eval.Options) { o.Runs = n }
}

// WithSeed sets the base RNG seed (default 1). Every run's stream is
// derived from (seed, degree, run), so a seed pins the whole sweep.
func WithSeed(seed int64) Option {
	return func(o *eval.Options) { o.Seed = seed }
}

// WithProgress installs a printf-style callback receiving one line per
// completed density point, live-grid axis point or scenario replicate.
func WithProgress(f func(format string, args ...any)) Option {
	return func(o *eval.Options) { o.Progress = f }
}

// WithDegrees overrides every figure's density axis.
func WithDegrees(degrees ...float64) Option {
	return func(o *eval.Options) { o.Degrees = append([]float64(nil), degrees...) }
}

// Runner is the one way to run anything: figure sweeps (Run, Stream), the
// live-stack ablations (LiveGrid) and scenario programs (RunScenario,
// StreamScenario), under a fixed option set, so one configuration
// (workers, seed, runs, progress sink) can drive many of them.
type Runner struct {
	opts eval.Options
}

// NewRunner binds options into a reusable runner.
func NewRunner(opts ...Option) *Runner {
	r := &Runner{}
	for _, opt := range opts {
		opt(&r.opts)
	}
	return r
}

// Run sweeps the figures to completion, one Sweep each in order.
// Cancelling ctx stops outstanding work promptly and returns ctx.Err(). For
// a fixed seed the result is bit-identical regardless of WithWorkers.
func (r *Runner) Run(ctx context.Context, figs ...Figure) (*Results, error) {
	return eval.Run(ctx, figs, r.opts)
}

// Stream starts sweeping the figures and returns the event channel plus a wait
// function that blocks until completion and yields the final result. The
// channel is buffered for the whole sweep and closed when done. Point
// events may arrive out of density order; their indexes locate them.
func (r *Runner) Stream(ctx context.Context, figs ...Figure) (<-chan Event, func() (*Results, error)) {
	return eval.Stream(ctx, figs, r.opts)
}

// LiveGrid runs the live-stack ablation named name — "control" (A4),
// "loss" (A7), "load" (A8), "overhead" (O1) or "scale" (S1) — as a scenario
// grid, honouring ctx and the runner's seed, worker budget and density axis
// (A4 and O1). A live run costs about twenty offline ones, so a runner run
// count of n gives each grid n/20 runs a point (at least 1), and none gives
// its own default of 3; S1 always runs one. scale applies to S1 only. The
// result holds the grid's one sweep.
func (r *Runner) LiveGrid(ctx context.Context, name string, scale ScaleAxis) (*Results, error) {
	return eval.RunLiveGrid(ctx, name, scale, r.opts)
}
