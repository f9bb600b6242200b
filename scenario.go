package qolsr

// The Scenario API: declarative dynamic-network programs — topology source,
// protocol configuration, a timeline of phases (mobility, link churn,
// partitions) and a probe-traffic workload — executed on the live protocol
// stack with measurements sampled at a fixed virtual-time cadence.
//
//	sc, err := qolsr.ScenarioByName("single-link-flap", "fnbp")
//	res, err := qolsr.RunScenario(ctx, sc, qolsr.WithRuns(5), qolsr.WithSeed(1))
//	...
//	res.WriteTable(os.Stdout)
//	res.EncodeJSON(os.Stdout)   // machine-readable ("qolsr-scenario/v2")
//
// For incremental consumption, StreamScenario delivers every measurement as
// it is taken while replicate runs execute in parallel:
//
//	events, wait := qolsr.NewRunner().StreamScenario(ctx, sc)
//	for ev := range events {
//		if ev.Kind == qolsr.ScenarioEventSample { plot(ev.Run, ev.Sample) }
//	}
//	res, err := wait()

import (
	"context"

	"qolsr/internal/runner"
	"qolsr/internal/scenario"
)

// Scenario definitions.
type (
	// Scenario is one declarative dynamic-network program.
	Scenario = scenario.Scenario
	// ScenarioTopology chooses where the scenario's nodes come from.
	ScenarioTopology = scenario.Topology
	// ScenarioProtocol configures the per-node stack.
	ScenarioProtocol = scenario.Protocol
	// ScenarioMedium selects the radio model a scenario runs on.
	ScenarioMedium = scenario.Medium
	// ScenarioMobility couples a scenario to a waypoint model.
	ScenarioMobility = scenario.Mobility
	// ScenarioTraffic is the probe workload.
	ScenarioTraffic = scenario.Traffic
	// ScenarioPhase is one timeline entry.
	ScenarioPhase = scenario.Phase
	// ScenarioAction is one timeline effect on the running network.
	ScenarioAction = scenario.Action
	// ScenarioDefinition is one named built-in scenario.
	ScenarioDefinition = scenario.Definition
)

// Timeline actions.
type (
	// ActionFailLink takes one named physical link down.
	ActionFailLink = scenario.FailLink
	// ActionRestoreLink brings one named physical link back.
	ActionRestoreLink = scenario.RestoreLink
	// ActionFailFraction fails a random fraction of the up links.
	ActionFailFraction = scenario.FailFraction
	// ActionFailRandom fails a fixed number of random up links.
	ActionFailRandom = scenario.FailRandom
	// ActionRestoreAll brings every failed link back.
	ActionRestoreAll = scenario.RestoreAll
	// ActionPartition splits the network along the field midline.
	ActionPartition = scenario.Partition
	// ActionSetLoss replaces the lossy medium's base packet-error rate.
	ActionSetLoss = scenario.SetLoss
	// ActionDegradeLink overrides one physical link's packet-error rate.
	ActionDegradeLink = scenario.DegradeLink
)

// Scenario results.
type (
	// ScenarioSample is one measurement at one virtual time of one run.
	ScenarioSample = scenario.Sample
	// ScenarioRunResult is one replicate run of a scenario.
	ScenarioRunResult = scenario.RunResult
	// ScenarioReconvergence reports recovery from one disruptive phase.
	ScenarioReconvergence = scenario.Reconvergence
	// ScenarioResult is a completed scenario execution with table/CSV/JSON
	// encoders (schema "qolsr-scenario/v2").
	ScenarioResult = scenario.Result
	// ScenarioAggregate accumulates one sample time across runs.
	ScenarioAggregate = scenario.AggregateSample
	// ScenarioEvent is one incremental scenario outcome (see
	// StreamScenario).
	ScenarioEvent = runner.ScenarioEvent
	// ScenarioEventKind discriminates scenario stream events.
	ScenarioEventKind = runner.ScenarioEventKind
)

// Scenario stream event kinds.
const (
	// ScenarioEventSample reports one measurement of one run.
	ScenarioEventSample = runner.ScenarioEventSample
	// ScenarioEventRun reports one completed replicate run.
	ScenarioEventRun = runner.ScenarioEventRun
)

// Scenario registry: built-ins resolve by name, parameterised by
// advertised-set selector, so CLI and config-file users never touch code.
var (
	// BuiltInScenarios returns the built-in scenario registry.
	BuiltInScenarios = scenario.BuiltIn
	// ScenarioNames lists the built-in scenario names.
	ScenarioNames = scenario.Names
	// ScenarioByName materialises a built-in scenario for one selector
	// ("fnbp", "topofilter", "qolsr" or "full"; empty means "fnbp").
	ScenarioByName = scenario.ByName
	// ExecuteScenarioRun runs one replicate directly, without the runner
	// (useful for custom harnesses; RunScenario is the usual entry).
	ExecuteScenarioRun = scenario.Execute
)

// RunScenario executes the scenario's replicate runs to completion under
// ctx. WithWorkers, WithRuns (default 3 — the live stack is costly per
// replicate), WithSeed and WithProgress apply; for a fixed seed the result
// is bit-identical regardless of the worker budget.
func RunScenario(ctx context.Context, sc Scenario, opts ...Option) (*ScenarioResult, error) {
	return NewRunner(opts...).RunScenario(ctx, sc)
}

// RunScenario executes the scenario to completion under the runner's
// options. See the package-level RunScenario.
func (r *Runner) RunScenario(ctx context.Context, sc Scenario) (*ScenarioResult, error) {
	return runner.RunScenario(ctx, sc, r.opts)
}

// StreamScenario starts the scenario and returns the event channel plus a
// wait function yielding the final result. The channel is buffered for the
// whole execution and closed when done. Events from different replicate
// runs interleave arbitrarily; their Run index locates them.
func (r *Runner) StreamScenario(ctx context.Context, sc Scenario) (<-chan ScenarioEvent, func() (*ScenarioResult, error)) {
	return runner.StreamScenario(ctx, sc, r.opts)
}
