// Package scenario defines deterministic, composable dynamic-network
// scenarios for the live OLSR/QOLSR stack: a topology source, a protocol
// configuration, a timeline of phases (mobility, link-failure/restore
// schedules, partitions), a probe-traffic workload on the data plane, and
// measurement samples taken at a fixed virtual-time cadence (delivery
// ratio, hop stretch, routing overhead vs. the optimum, control traffic,
// advertised-set sizes, reconvergence time after churn).
//
// The paper evaluates FNBP only on static random graphs; scenarios exercise
// the regime OLSR's soft-state design exists for — mobility, link churn and
// partition healing — on the same protocol implementations. Every scenario
// run is a pure function of (scenario, seed, run index): replicate runs are
// independent, so the runner can parallelize them while keeping results
// bit-identical for any worker count.
package scenario

import (
	"fmt"
	"time"

	"qolsr/internal/geom"
	"qolsr/internal/olsr"
	"qolsr/internal/sim"
	"qolsr/internal/traffic"
)

// Topology chooses where the scenario's nodes come from. Exactly one of
// Deployment and Points must be set.
type Topology struct {
	// Deployment, when non-nil, samples node positions from the Poisson
	// point process independently per run (the paper's deployment model).
	Deployment *geom.Deployment
	// Points places nodes explicitly; every run then starts from the same
	// geometry. Field and Radius are required alongside Points.
	Points []geom.Point
	// Field is the deployment area for explicit Points.
	Field geom.Field
	// Radius is the unit-disk communication radius for explicit Points.
	Radius float64
}

// Validate checks the topology source.
func (t Topology) Validate() error {
	switch {
	case t.Deployment != nil && len(t.Points) > 0:
		return fmt.Errorf("scenario: topology sets both Deployment and Points")
	case t.Deployment != nil:
		return t.Deployment.Validate()
	case len(t.Points) > 0:
		if err := t.Field.Validate(); err != nil {
			return err
		}
		if !(t.Radius > 0) {
			return fmt.Errorf("scenario: radius %g must be positive", t.Radius)
		}
		for i, p := range t.Points {
			if !t.Field.Contains(p) {
				return fmt.Errorf("scenario: point %d %v outside field", i, p)
			}
		}
		return nil
	default:
		return fmt.Errorf("scenario: topology needs a Deployment or explicit Points")
	}
}

// field returns the deployment area regardless of the source.
func (t Topology) field() geom.Field {
	if t.Deployment != nil {
		return t.Deployment.Field
	}
	return t.Field
}

// radius returns the communication radius regardless of the source.
func (t Topology) radius() float64 {
	if t.Deployment != nil {
		return t.Deployment.Radius
	}
	return t.Radius
}

// senseNames names the modes a scenario senses links in; the default has none.
var senseNames = map[olsr.LinkSensing]string{olsr.SenseOracle: "", olsr.SenseDelivery: "delivery"}

// Protocol configures the stack every node runs on RFC 3626 timers. The
// zero value means FNBP selection under the bandwidth metric, the paper's
// setting, with oracle link weights on the RFC 3626 control plane.
type Protocol struct {
	// Selector names the advertised-set scheme: "fnbp", "topofilter",
	// "qolsr" or "full" (default "fnbp").
	Selector string
	// LinkSensing is olsr.SenseOracle (the zero value: oracle weights) or
	// olsr.SenseDelivery (windowed HELLO delivery ratios, ETX-style, the
	// regime the lossy medium exists for).
	LinkSensing olsr.LinkSensing
	// Metric names the QoS metric selection and routing run under:
	// "bandwidth" (default), "delay", "hop" or "energy".
	Metric string
	// Plane names the control plane as "+"-joined parts: "mpr2" floods on
	// QOLSR MPR-2 relays instead of RFC 3626 greedy ones, "delta"
	// delta-encodes TCs, "fisheye" scopes them on the default schedule and
	// "minrelay" floods on min-cover relays. Empty is the RFC 3626 plane.
	Plane string
}

// Medium selects the radio model a scenario runs on. The zero value is the
// ideal MAC the paper assumes.
type Medium struct {
	// Kind names a medium of sim.MediumNames: "ideal" (the default) or
	// "lossy".
	Kind string
	// Loss is the lossy medium's base per-link packet-error rate, in
	// [0, 1).
	Loss float64
	// DistanceLoss adds distance-dependent loss on static topologies: a
	// link at the full communication radius suffers this much extra error
	// rate, scaled by (d/R)². Ignored under mobility (the geometry the
	// medium captures would go stale).
	DistanceLoss float64
}

// Validate checks the medium spec. The kind resolves through
// sim.MediumByName, the registry qolsr-sim -list prints.
func (m Medium) Validate() error {
	med, err := sim.MediumByName(m.Kind, sim.LossyConfig{})
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	// Lossy-only knobs on the ideal medium would be silently ignored —
	// reject them so a forgotten Kind can't simulate a perfect radio while
	// the user believes they configured loss.
	if _, lossy := med.(*sim.LossyMedium); !lossy && (m.Loss != 0 || m.DistanceLoss != 0) {
		return fmt.Errorf("scenario: medium knobs (loss/distance loss) require Kind \"lossy\", got %q", m.Kind)
	}
	if m.Loss < 0 || m.Loss >= 1 {
		return fmt.Errorf("scenario: medium loss %g outside [0,1)", m.Loss)
	}
	if m.DistanceLoss < 0 || m.DistanceLoss > 1 {
		return fmt.Errorf("scenario: medium distance loss %g outside [0,1]", m.DistanceLoss)
	}
	return nil
}

// Mobility couples the scenario to a waypoint model for its whole duration;
// the topology refreshes every second.
type Mobility struct {
	// Model is the random-waypoint parameterisation (field is overridden
	// by the scenario's topology field).
	Model geom.Waypoint
}

// rebuildEvery is the mobile topology-refresh period.
const rebuildEvery = time.Second

// Traffic is the data-plane workload. Exactly one of the two forms is
// active: probes (Flows), or a sustained flow-class mix (Mix) driven by the
// traffic engine. Both enter the data plane through the same sink path;
// probes stay a client of their own because the sampler sends them only on
// flows the physical topology connects at sample time, and measures
// Delivery over those connected pairs, where the engine's flows send on
// their own clocks whatever the topology.
type Traffic struct {
	// Flows is the probe workload: persistent random (source, destination)
	// flows, each sending one data-plane packet per measurement sample
	// that finds its pair connected — a minimal CBR probe class paced by
	// the sample clock. Default 10 (clamped to the available ordered
	// pairs) when Mix is empty; must be unset when Mix is given.
	Flows int
	// Mix, when non-empty, replaces the probes with sustained flows: each
	// spec contributes Count flows of its class (cbr, poisson, video),
	// admission-controlled against their QoS requirements and driven
	// packet by packet through the routing tables and the radio medium.
	// Specs with a zero Start begin at the scenario warmup.
	Mix []traffic.Spec
}

// Obs configures the observability layer of a run. The zero value keeps
// everything off: no registry is attached, the tracer stays nil (one nil
// compare per packet on the data plane), and every measurement golden stays
// bit-identical.
type Obs struct {
	// Metrics attaches a metrics registry to every run and snapshots it at
	// the end of the run (RunResult.Metrics). The registry reads the run's
	// existing counters lazily at snapshot time — it adds nothing to the
	// event hot path.
	Metrics bool
	// TraceEvery, when positive, samples one in TraceEvery data packets for
	// hop-by-hop path tracing (RunResult.Trace, Chrome trace-event format).
	// Sampling is keyed by packet identity (flow, seq), never by arrival
	// order, so the trace is byte-identical at every worker count.
	TraceEvery int
}

// Phase is one timeline entry: an action applied at a virtual time.
type Phase struct {
	// At is the virtual time the action fires.
	At time.Duration
	// Action is what happens.
	Action Action
}

// Scenario is one declarative dynamic-network program. Build literals, or
// fetch a parameterised built-in with ByName.
type Scenario struct {
	// Name identifies the scenario in encodings and tables.
	Name string
	// Description is a one-line summary (built-ins fill it).
	Description string
	// Topology is the node source.
	Topology Topology
	// Protocol configures the per-node stack.
	Protocol Protocol
	// Medium is the radio model (default ideal).
	Medium Medium
	// Mobility, when non-nil, moves the nodes for the whole run.
	Mobility *Mobility
	// Traffic is the probe workload.
	Traffic Traffic
	// Phases is the timeline of actions, in any order (the engine sorts).
	Phases []Phase
	// Duration is the simulated virtual time per run (default 60s).
	Duration time.Duration
	// Warmup is the first sample time — earlier behaviour is protocol
	// cold-start, not scenario signal (default min(Duration/3, 20s)).
	Warmup time.Duration
	// SampleEvery is the measurement cadence (default 2s, minimum 100ms).
	// With probe flows it must also exceed the medium's probe drain window
	// (66ms on the ideal medium, about 350ms on the default lossy one), so
	// each sample's probes complete before the next sample is due.
	SampleEvery time.Duration
	// Deprecated: Workers is ignored; route tables are rebuilt serially.
	// It stays only because the benchmark harness sets it (ROADMAP 14(b)).
	Workers int
	// Obs configures metrics collection and packet path tracing (default
	// all off).
	Obs Obs
}

// WithDefaults returns a copy with every unset knob at its default.
func (sc Scenario) WithDefaults() Scenario {
	if sc.Name == "" {
		sc.Name = "custom"
	}
	if sc.Protocol.Selector == "" {
		sc.Protocol.Selector = "fnbp"
	}
	if sc.Protocol.Metric == "" {
		sc.Protocol.Metric = "bandwidth"
	}
	if sc.Medium.Kind == "" {
		sc.Medium.Kind = "ideal"
	}
	if len(sc.Traffic.Mix) == 0 {
		if sc.Traffic.Flows <= 0 {
			sc.Traffic.Flows = 10
		}
	} else {
		mix := make([]traffic.Spec, len(sc.Traffic.Mix))
		for i, sp := range sc.Traffic.Mix {
			mix[i] = sp.WithDefaults()
		}
		sc.Traffic.Mix = mix
	}
	if sc.Duration <= 0 {
		sc.Duration = 60 * time.Second
	}
	if sc.Warmup <= 0 {
		sc.Warmup = min(sc.Duration/3, 20*time.Second)
	}
	if sc.SampleEvery <= 0 {
		sc.SampleEvery = 2 * time.Second
	}
	return sc
}

// minSampleEvery is the floor on any sampling cadence. Probe mode also
// needs the medium's drain window (probeDrain) inside one interval.
const minSampleEvery = 100 * time.Millisecond

// Validate checks the scenario after defaulting. ByName output and
// WithDefaults results always validate.
func (sc Scenario) Validate() error {
	if err := sc.Topology.Validate(); err != nil {
		return err
	}
	if _, err := protocolConfig(sc.Protocol); err != nil {
		return err
	}
	if err := sc.Medium.Validate(); err != nil {
		return err
	}
	if sc.Duration <= 0 {
		return fmt.Errorf("scenario: non-positive duration %v", sc.Duration)
	}
	if len(sc.Traffic.Mix) > 0 {
		if sc.Traffic.Flows > 0 {
			return fmt.Errorf("scenario: traffic sets both the Flows probe count and a Mix — use one")
		}
		for i, sp := range sc.Traffic.Mix {
			if err := sp.WithDefaults().Validate(); err != nil {
				return fmt.Errorf("scenario: traffic mix %d: %w", i, err)
			}
			if sp.Start > sc.Duration {
				return fmt.Errorf("scenario: traffic mix %d starts at %v, after the %v duration", i, sp.Start, sc.Duration)
			}
		}
	}
	if sc.Obs.TraceEvery < 0 {
		return fmt.Errorf("scenario: negative trace sampling period %d", sc.Obs.TraceEvery)
	}
	if sc.SampleEvery < minSampleEvery {
		return fmt.Errorf("scenario: sample interval %v below minimum %v", sc.SampleEvery, minSampleEvery)
	}
	if len(sc.Traffic.Mix) == 0 {
		medium, _, err := buildMedium(sc.Medium, 0, 0)
		if err != nil {
			return err
		}
		if drain := probeDrain(medium); sc.SampleEvery <= drain {
			return fmt.Errorf("scenario: probe sample interval %v must exceed the %s medium's drain window %v",
				sc.SampleEvery, medium.Name(), drain)
		}
	}
	if sc.Warmup > sc.Duration {
		return fmt.Errorf("scenario: warmup %v exceeds duration %v", sc.Warmup, sc.Duration)
	}
	if sc.Mobility != nil {
		model := sc.Mobility.Model
		model.Field = sc.Topology.field()
		if err := model.Validate(); err != nil {
			return err
		}
	}
	for i, ph := range sc.Phases {
		if ph.Action == nil {
			return fmt.Errorf("scenario: phase %d has no action", i)
		}
		if ph.At < 0 || ph.At > sc.Duration {
			return fmt.Errorf("scenario: phase %d at %v outside [0,%v]", i, ph.At, sc.Duration)
		}
		if err := ph.Action.validate(); err != nil {
			return fmt.Errorf("scenario: phase %d: %w", i, err)
		}
		if sc.Medium.Kind != "lossy" {
			switch ph.Action.(type) {
			case SetLoss, DegradeLink:
				return fmt.Errorf("scenario: phase %d (%s) requires the lossy medium", i, ph.Action.Describe())
			}
		}
	}
	return nil
}

// SampleTimes returns the virtual times measurements are taken at, after
// defaulting: Warmup, Warmup+SampleEvery, ... up to Duration.
func (sc Scenario) SampleTimes() []time.Duration {
	sc = sc.WithDefaults()
	var ts []time.Duration
	for t := sc.Warmup; t <= sc.Duration; t += sc.SampleEvery {
		ts = append(ts, t)
	}
	return ts
}
