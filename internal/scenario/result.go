package scenario

import (
	"time"

	"qolsr/internal/obs"
	"qolsr/internal/olsr"
	"qolsr/internal/sim"
	"qolsr/internal/stats"
	"qolsr/internal/traffic"
)

// Sample is one measurement at one virtual time of one run.
type Sample struct {
	// Time is the virtual sample time.
	Time time.Duration
	// Nodes and Links describe the physical topology at sample time
	// (Links counts only currently-up links).
	Nodes int
	Links int
	// Connected counts probe flows whose pair is physically connected at
	// sample time; Delivered counts those whose probe packet arrived.
	Connected int
	Delivered int
	// Delivery is Delivered/Connected (1 when no flow is connected — an
	// empty obligation is met).
	Delivery float64
	// HopStretch is the mean ratio of delivered path length to the
	// hop-optimal path on the current physical topology (0 when nothing
	// was delivered).
	HopStretch float64
	// Overhead is the mean relative regret of the sources' routing-table
	// values against the centralized optimum on the current physical
	// topology — the paper's overhead metric, live (0 when no source has
	// a route). It compares what the source *believes* its route achieves,
	// so transiently negative values are a churn signal: the table still
	// values a route through a link that just died.
	Overhead float64
	// OverheadFlows counts the connected flows whose source had a
	// routing-table entry contributing to Overhead — route availability,
	// and the discriminator between "overhead 0 = optimal" and
	// "overhead 0 = no data".
	OverheadFlows int
	// ControlBPS is the control-traffic rate (HELLO+TC bytes per virtual
	// second) since the previous sample.
	ControlBPS float64
	// TCFwdBPS is the relay re-broadcast share of ControlBPS — TC bytes
	// forwarded (not originated) per virtual second since the previous
	// sample. The flooding-cost component the relay-set optimisations act
	// on.
	TCFwdBPS float64
	// SetSize is the mean size of the advertised set each node holds (the
	// set its latest TC carried), read without running a selection.
	SetSize float64

	// Traffic-engine fields, set only when the scenario runs a flow-class
	// Mix (zero in probe mode). In engine mode Delivery is
	// packet-based — TrafficDelivered/TrafficCompleted over the window
	// ending at Time — while Connected still counts physically-connected
	// flow pairs.

	// TrafficSent counts flow packets handed to the data plane in the
	// window.
	TrafficSent int
	// TrafficCompleted counts flow packets that finished (delivered or
	// dropped) in the window.
	TrafficCompleted int
	// TrafficDelivered counts flow packets delivered in the window.
	TrafficDelivered int
	// TrafficThroughputBps is the delivered payload rate over the window,
	// bytes per virtual second.
	TrafficThroughputBps float64

	// Rebuild-observability fields: routing-compute activity across all
	// nodes in the window ending at Time (see olsr.RebuildStats).

	// SPFFull counts the routing tables computed in the window, one full
	// shortest-path solve each.
	SPFFull int
	// SharedAdvRate is the fraction of ingested advertisements in the
	// window that left the stored set untouched (the shared-epoch hit
	// rate; 0 when the window ingested nothing).
	SharedAdvRate float64
}

// Reconvergence reports how the protocol recovered from one disruptive
// phase: the first sample at or after the post-event delivery trough whose
// delivery ratio is back at the pre-event baseline (the last sample before
// the event; full delivery when the event precedes all samples). Both the
// trough and the recovery are searched only up to the next disruption —
// soft-state expiry can delay the visible degradation by several seconds,
// and recovery caused by a later phase (a scheduled heal) belongs to that
// phase, so an event whose window ends first reports not-recovered.
type Reconvergence struct {
	// Phase describes the disruptive action.
	Phase string
	// EventTime is when the action fired.
	EventTime time.Duration
	// Recovered reports whether full delivery was observed again before
	// the run ended.
	Recovered bool
	// RecoveredAt is the sample time of recovery (zero when !Recovered).
	RecoveredAt time.Duration
}

// Duration returns the reconvergence time, or -1 when never recovered.
func (rc Reconvergence) Duration() time.Duration {
	if !rc.Recovered {
		return -1
	}
	return rc.RecoveredAt - rc.EventTime
}

// RunResult is one replicate run of a scenario.
type RunResult struct {
	// Run is the replicate index.
	Run int
	// Nodes is the deployed node count.
	Nodes int
	// Samples holds one entry per sample time, in time order.
	Samples []Sample
	// Reconvergence holds one entry per disruptive phase, in fire order.
	Reconvergence []Reconvergence
	// Control and Data are the run's final traffic totals.
	Control sim.TrafficStats
	Data    sim.DataStats
	// Traffic is the flow engine's end-of-run accounting: per-flow and
	// per-class delivery, delay quantiles, jitter and QoS verdicts. Nil
	// in probe mode.
	Traffic *traffic.Report
	// Rebuilds counts mobility topology refreshes (0 when static).
	Rebuilds int
	// Rebuild is the run's final routing-compute totals summed across
	// nodes: advertisement interning hits and the routing tables computed.
	Rebuild olsr.RebuildStats
	// Metrics is the run's end-of-run observability-registry snapshot.
	// Empty unless the scenario sets Obs.Metrics.
	Metrics obs.Snapshot
	// Trace holds the run's sampled packet-path trace events in virtual
	// event order. Nil unless the scenario sets a positive Obs.TraceEvery.
	Trace []obs.TraceEvent
}

// Result is a completed scenario execution: Runs replicate runs of the same
// program under independent derived seeds.
type Result struct {
	// Scenario is the executed program, fully defaulted.
	Scenario Scenario
	// Seed is the base seed every run's streams derive from.
	Seed int64
	// Runs holds one result per replicate, by run index.
	Runs []*RunResult
}

// AggregateSample accumulates one sample time across runs.
type AggregateSample struct {
	Time       time.Duration
	Delivery   stats.Accumulator
	HopStretch stats.Accumulator
	Overhead   stats.Accumulator
	ControlBPS stats.Accumulator
	SetSize    stats.Accumulator
}

// Aggregate folds the per-run samples into one accumulator per sample
// time, in run order (deterministic for a fixed seed).
func (r *Result) Aggregate() []AggregateSample {
	times := r.Scenario.SampleTimes()
	agg := make([]AggregateSample, len(times))
	for i, t := range times {
		agg[i].Time = t
	}
	for _, run := range r.Runs {
		if run == nil {
			continue
		}
		for i, s := range run.Samples {
			if i >= len(agg) {
				break
			}
			agg[i].Delivery.Add(s.Delivery)
			// HopStretch and Overhead are 0-valued sentinels when no
			// flow contributed; folding those into the mean would
			// report "better than optimal" exactly when the network
			// is at its worst. Their accumulators' N reflects the
			// runs with data. The guard is on the value (a measured
			// stretch is always >= 1): in traffic-engine mode Delivered
			// counts flow packets while no probe stretch is measured at
			// all, so a Delivered-based guard would fold the sentinel.
			if s.HopStretch > 0 {
				agg[i].HopStretch.Add(s.HopStretch)
			}
			if s.OverheadFlows > 0 {
				agg[i].Overhead.Add(s.Overhead)
			}
			agg[i].ControlBPS.Add(s.ControlBPS)
			agg[i].SetSize.Add(s.SetSize)
		}
	}
	return agg
}

// ClassAggregate folds one flow class's end-of-run records across runs:
// verdict counts are summed, rates and quantiles accumulate the per-run
// values.
type ClassAggregate struct {
	Class string
	// Summed verdict counts across runs.
	Flows, Admitted, Satisfied, Violated, CorrectReject, FalseReject int
	// Per-run accumulators.
	Delivery   stats.Accumulator
	Throughput stats.Accumulator
	DelayP95   stats.Accumulator // seconds
	Jitter     stats.Accumulator // seconds
	Violation  stats.Accumulator // per-run violation ratio
}

// AggregateTraffic folds the runs' traffic reports per flow class, in
// first-seen class order with the all-classes total last. Nil when no run
// carried a traffic report (probe mode).
func (r *Result) AggregateTraffic() []ClassAggregate {
	var (
		order []string
		byCls = make(map[string]*ClassAggregate)
	)
	get := func(name string) *ClassAggregate {
		if a, ok := byCls[name]; ok {
			return a
		}
		order = append(order, name)
		a := &ClassAggregate{Class: name}
		byCls[name] = a
		return a
	}
	fold := func(a *ClassAggregate, c traffic.ClassReport) {
		a.Flows += c.Flows
		a.Admitted += c.Admitted
		a.Satisfied += c.Satisfied
		a.Violated += c.Violated
		a.CorrectReject += c.CorrectReject
		a.FalseReject += c.FalseReject
		a.Delivery.Add(c.Delivery)
		a.Throughput.Add(c.Throughput)
		a.DelayP95.Add(c.DelayP95.Seconds())
		a.Jitter.Add(c.Jitter.Seconds())
		a.Violation.Add(c.ViolationRatio())
	}
	all := ClassAggregate{Class: "all"}
	for _, run := range r.Runs {
		if run == nil || run.Traffic == nil {
			continue
		}
		for _, c := range run.Traffic.Classes {
			fold(get(c.Class), c)
		}
		fold(&all, run.Traffic.Total)
	}
	if len(order) == 0 {
		return nil
	}
	out := make([]ClassAggregate, len(order), len(order)+1)
	for i, name := range order {
		out[i] = *byCls[name]
	}
	return append(out, all)
}
