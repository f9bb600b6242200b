// Package traffic is the QoS traffic engine: sustained packet-level flows
// driven hop-by-hop through the live routing tables and the radio medium,
// gated by admission control and accounted per flow.
//
// The paper's premise is selecting neighbors so that flows with bandwidth
// and delay requirements are satisfied — yet a probe packet per sample tick
// exercises none of that. This package closes the gap: flow classes (CBR,
// Poisson, on-off bursty "video") offer load continuously, an admission
// gate checks each flow's requested QoS against the selected path's
// composed bandwidth/delay values (the protocol's own belief, oracle or
// measured) before admitting it, and per-flow accounting produces delivery
// ratio, throughput, delay mean/p50/p95/p99, jitter, and the QoS verdicts
// (admitted-but-violated vs. correctly-rejected) that honestly measure a
// neighbor-selection policy under load.
//
// Every packet arrival and size draw is keyed through splitmix64 per
// (seed, flow, packet-sequence), so a simulation is reproducible bit for
// bit at any harness worker count. The per-packet QoS statistics are folded
// off the event loop — in batches of deliveries, on a worker goroutine when
// GOMAXPROCS is above 1 — but always in delivery order, one batch at a
// time: every accumulator sees exactly the sequence a serial fold gives it,
// so every Report field is bit-identical at any GOMAXPROCS. Report and the
// lazy violation collectors flush the fold before they read.
package traffic

import (
	"fmt"
	"strings"
	"time"
)

// Requirements is a flow's requested QoS.
type Requirements struct {
	// MinBandwidth is the path bottleneck floor, in oracle
	// bandwidth-channel units (the physical link-capacity weights).
	// Admission composes it along the path the protocol's routing tables
	// actually select — under oracle sensing that is the source route's
	// own concave value; under measured sensing (whose route values are
	// delivery products, a different unit) the oracle capacities along
	// the measured-selected path are composed instead, so the floor
	// stays unit-coherent in every mode. Zero means no floor.
	MinBandwidth float64
	// MaxDelay is the end-to-end delay ceiling, checked at admission
	// against the path's composed per-hop delay bound and after the run
	// against the measured p95 delay. Zero means no ceiling.
	MaxDelay time.Duration
	// MaxJitter bounds the measured mean inter-packet delay variation.
	// It has no composable path estimate, so it is checked only against
	// measured traffic. Zero means no bound.
	MaxJitter time.Duration
}

// zero reports whether no requirement is set.
func (r Requirements) zero() bool {
	return r.MinBandwidth == 0 && r.MaxDelay == 0 && r.MaxJitter == 0
}

// Validate checks the requirements.
func (r Requirements) Validate() error {
	if r.MinBandwidth < 0 {
		return fmt.Errorf("traffic: negative bandwidth floor %g", r.MinBandwidth)
	}
	if r.MaxDelay < 0 {
		return fmt.Errorf("traffic: negative delay ceiling %v", r.MaxDelay)
	}
	if r.MaxJitter < 0 {
		return fmt.Errorf("traffic: negative jitter bound %v", r.MaxJitter)
	}
	return nil
}

// Built-in flow-class names.
const (
	// ClassCBR emits fixed-size packets at constant bit rate — the
	// synthetic multimedia stream of the QoS-routing literature.
	ClassCBR = "cbr"
	// ClassPoisson emits fixed-size packets with exponential
	// inter-arrival times — memoryless background load.
	ClassPoisson = "poisson"
	// ClassVideo is an on-off bursty source: exponential on/off periods,
	// double-rate emission while on (long-run average equals the
	// configured rate) and variable packet sizes — a coarse VBR video
	// model.
	ClassVideo = "video"
)

// ClassInfo describes one built-in flow class for listings.
type ClassInfo struct {
	Name        string
	Description string
}

// Classes returns the built-in flow classes in listing order.
func Classes() []ClassInfo {
	return []ClassInfo{
		{ClassCBR, "constant bit rate, fixed-size packets"},
		{ClassPoisson, "Poisson arrivals (exponential inter-arrival), fixed-size packets"},
		{ClassVideo, "on-off bursty VBR: exponential on/off periods, variable packet sizes"},
	}
}

// ClassNames lists the built-in flow-class names in listing order.
func ClassNames() []string {
	infos := Classes()
	names := make([]string, len(infos))
	for i, c := range infos {
		names[i] = c.Name
	}
	return names
}

// CheckClass validates a flow-class name, listing the valid names on error.
func CheckClass(name string) error {
	for _, c := range ClassNames() {
		if c == name {
			return nil
		}
	}
	return fmt.Errorf("traffic: unknown flow class %q (have %s)", name, strings.Join(ClassNames(), ", "))
}

// Default per-flow parameters.
const (
	// DefaultRateBps is the default offered load per flow (8 kB/s).
	DefaultRateBps = 8192
	// DefaultPacketBytes is the default packet size.
	DefaultPacketBytes = 512
	// MinPacketBytes floors drawn packet sizes.
	MinPacketBytes = 64
)

// Spec describes one flow-class entry of a traffic mix: Count flows of one
// class, each offering RateBps with the given QoS requirements.
type Spec struct {
	// Class names the arrival process: "cbr", "poisson" or "video".
	Class string
	// Count is the number of flows of this class.
	Count int
	// RateBps is the mean offered load per flow in bytes per virtual
	// second (default DefaultRateBps).
	RateBps float64
	// PacketBytes is the nominal packet size (default DefaultPacketBytes;
	// the video class draws sizes in [½, 1½] of it).
	PacketBytes int
	// Start is the virtual time the spec's flows request admission
	// (harnesses default it to their warmup time when zero).
	Start time.Duration
	// QoS is the per-flow requested QoS.
	QoS Requirements
}

// WithDefaults returns a copy with unset knobs at their defaults.
func (s Spec) WithDefaults() Spec {
	if s.RateBps <= 0 {
		s.RateBps = DefaultRateBps
	}
	if s.PacketBytes <= 0 {
		s.PacketBytes = DefaultPacketBytes
	}
	return s
}

// Validate checks the spec after defaulting.
func (s Spec) Validate() error {
	if err := CheckClass(s.Class); err != nil {
		return err
	}
	if s.Count < 1 {
		return fmt.Errorf("traffic: spec %q needs a positive flow count, got %d", s.Class, s.Count)
	}
	if s.RateBps <= 0 {
		return fmt.Errorf("traffic: spec %q needs a positive rate, got %g", s.Class, s.RateBps)
	}
	if s.PacketBytes < MinPacketBytes {
		return fmt.Errorf("traffic: spec %q packet size %d below minimum %d", s.Class, s.PacketBytes, MinPacketBytes)
	}
	if s.Start < 0 {
		return fmt.Errorf("traffic: spec %q negative start %v", s.Class, s.Start)
	}
	return s.QoS.Validate()
}

// Flow is one concrete flow: a spec entry bound to a (source, destination)
// pair. Src and Dst are graph indices of the network the engine runs on.
type Flow struct {
	// ID is the flow's index in the engine; it keys the flow's RNG
	// draws, so it must be stable across runs.
	ID int
	// Class names the arrival process.
	Class string
	// Src and Dst are the endpoints, as graph indices.
	Src, Dst int32
	// RateBps is the mean offered load in bytes per virtual second.
	RateBps float64
	// PacketBytes is the nominal packet size.
	PacketBytes int
	// Start is the virtual time the flow requests admission.
	Start time.Duration
	// Req is the requested QoS.
	Req Requirements
}
