package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"qolsr/internal/par"
	"qolsr/internal/scenario"
)

// Scenario execution: replicate runs of one dynamic-network program fan out
// over the same worker budget the figure sweeps use. Every run's RNG
// streams derive from (seed, run) alone and runs are assembled by index, so
// a fixed seed yields bit-identical results for any worker count; only the
// interleaving of streamed events varies.

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

// scenarioDefaults adapts the sweep options to scenario execution: the
// live protocol stack is far costlier per replicate than the offline
// harness, so the unset-runs default is 3 (matching the control sweep),
// not the figures' 100.
func scenarioDefaults(o Options) Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Runs <= 0 {
		o.Runs = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// StreamScenario starts the scenario's replicate runs on the worker budget
// and returns the event channel plus a wait function yielding the final
// result. The channel is buffered for the whole execution and closed when
// done, so a caller may drain it lazily or abandon it. Cancelling ctx stops
// outstanding work promptly; wait then returns ctx.Err().
func StreamScenario(ctx context.Context, sc scenario.Scenario, opts Options) (<-chan ScenarioEvent, func() (*scenario.Result, error)) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = scenarioDefaults(opts)
	sc = sc.WithDefaults()

	if err := sc.Validate(); err != nil {
		events := make(chan ScenarioEvent)
		close(events)
		return events, func() (*scenario.Result, error) { return nil, err }
	}

	samplesPerRun := len(sc.SampleTimes())
	events := make(chan ScenarioEvent, opts.Runs*(samplesPerRun+1))
	results := make([]*scenario.RunResult, opts.Runs)

	var progressMu sync.Mutex
	wait := goRun(func() error {
		return par.For(ctx, opts.Runs, opts.Workers, func(runCtx context.Context, run int) error {
			emit := func(s scenario.Sample) {
				events <- ScenarioEvent{Kind: ScenarioEventSample, Run: run, Sample: s}
			}
			rr, err := scenario.Execute(runCtx, sc, opts.Seed, run, emit)
			if err != nil {
				return fmt.Errorf("runner: scenario %s run %d: %w", sc.Name, run, err)
			}
			results[run] = rr
			events <- ScenarioEvent{Kind: ScenarioEventRun, Run: run, Result: rr}
			if opts.Progress != nil {
				progressMu.Lock()
				opts.Progress("scenario %s run %d done (%d nodes, %d samples)",
					sc.Name, run, rr.Nodes, len(rr.Samples))
				progressMu.Unlock()
			}
			return nil
		})
	}, func() { close(events) })
	return events, func() (*scenario.Result, error) {
		if err := wait(); err != nil {
			return nil, err
		}
		return &scenario.Result{Scenario: sc, Seed: opts.Seed, Runs: results}, nil
	}
}

// RunScenario executes the scenario to completion, discarding the event
// stream.
func RunScenario(ctx context.Context, sc scenario.Scenario, opts Options) (*scenario.Result, error) {
	events, wait := StreamScenario(ctx, sc, opts)
	for range events {
	}
	return wait()
}
