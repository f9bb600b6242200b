package qolsr

// The traffic API: sustained QoS flows on the live protocol stack. Flow
// classes (CBR, Poisson, on-off "video") offer load packet by packet
// through the routing tables and the radio medium; an admission gate checks
// each flow's requested QoS (bandwidth floor, delay ceiling, jitter bound)
// against the selected path before the flow may start, and per-flow
// accounting reports delivery, throughput, delay quantiles, jitter and the
// QoS verdicts (satisfied / violated / correct-reject / false-reject).
//
// Scenarios carry a flow mix in their Traffic spec:
//
//	sc, _ := qolsr.ScenarioByName("video-vs-cbr", "fnbp")
//	res, _ := qolsr.NewRunner(qolsr.WithRuns(3)).RunScenario(ctx, sc)
//	res.WriteTable(os.Stdout) // includes the per-class traffic section
//
// A mix entry naming no class of FlowClassNames fails the scenario's
// Validate, which RunScenario calls before any run starts.
//
// The satisfaction-vs-offered-load grid (A8) compares the paper's
// QoS-based selection against hop-count selection under growing load:
//
//	res, _ := qolsr.NewRunner().LiveGrid(ctx, "load", qolsr.ScaleAxis{})
//	res.WriteTable(os.Stdout)

import (
	"qolsr/internal/scenario"
	"qolsr/internal/traffic"
)

// Flow definitions.
type (
	// FlowSpec is one flow-class entry of a scenario traffic mix.
	FlowSpec = traffic.Spec
	// FlowRequirements is a flow's requested QoS: bandwidth floor, delay
	// ceiling, jitter bound.
	FlowRequirements = traffic.Requirements
	// Flow is one concrete flow bound to its endpoints.
	Flow = traffic.Flow
	// FlowClassInfo describes one built-in flow class.
	FlowClassInfo = traffic.ClassInfo
	// FlowDecision is one admission-control verdict with its path
	// evidence.
	FlowDecision = traffic.Decision
	// FlowVerdict is a flow's end-of-run QoS classification.
	FlowVerdict = traffic.Verdict
	// FlowReport is one flow's end-of-run record.
	FlowReport = traffic.FlowReport
	// FlowClassReport aggregates one flow class of one run.
	FlowClassReport = traffic.ClassReport
	// TrafficReport is a run's complete flow accounting.
	TrafficReport = traffic.Report
	// TrafficEngine drives sustained flows through a live network (custom
	// harnesses; scenarios build one from their Traffic.Mix).
	TrafficEngine = traffic.Engine
	// AdmissionGate decides flow admission on a live network's routing
	// state.
	AdmissionGate = traffic.Gate
	// ScenarioClassAggregate folds one flow class across replicate runs.
	ScenarioClassAggregate = scenario.ClassAggregate
)

// Built-in flow-class names.
const (
	// FlowClassCBR is the constant-bit-rate class.
	FlowClassCBR = traffic.ClassCBR
	// FlowClassPoisson is the Poisson-arrivals class.
	FlowClassPoisson = traffic.ClassPoisson
	// FlowClassVideo is the on-off bursty VBR class.
	FlowClassVideo = traffic.ClassVideo
)

// Flow verdicts.
const (
	// FlowSatisfied: admitted and every requirement met.
	FlowSatisfied = traffic.VerdictSatisfied
	// FlowViolated: admitted but the measured traffic broke a requirement.
	FlowViolated = traffic.VerdictViolated
	// FlowCorrectReject: rejected and no satisfying path existed.
	FlowCorrectReject = traffic.VerdictCorrectReject
	// FlowFalseReject: rejected although a satisfying path existed.
	FlowFalseReject = traffic.VerdictFalseReject
)

// Flow-class registry.
var (
	// FlowClasses returns the built-in flow classes with descriptions.
	FlowClasses = traffic.Classes
	// FlowClassNames lists the built-in flow-class names.
	FlowClassNames = traffic.ClassNames
	// NewTrafficEngine builds a traffic engine over a network.
	NewTrafficEngine = traffic.NewEngine
	// FlowsFromSpecs expands a mix of specs over endpoint pairs.
	FlowsFromSpecs = traffic.FlowsFromSpecs
)
