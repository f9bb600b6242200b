package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"qolsr/internal/rng"
)

// Sampler decides which data packets get a path trace. The 1-in-N choice is
// keyed — rng.Mix(seed, flow, seq) — never drawn from a sequential stream,
// so whether a packet is traced depends only on its identity, not on how
// many packets arrived before it. That is what keeps traces byte-identical
// across worker counts and scheduling orders.
type Sampler struct {
	seed uint64
	n    uint64
}

// NewSampler samples 1-in-every packets; every <= 0 disables sampling, and
// every == 1 traces all packets.
func NewSampler(seed int64, every int) Sampler {
	if every <= 0 {
		return Sampler{}
	}
	return Sampler{seed: uint64(seed), n: uint64(every)}
}

// Sample reports whether the packet (flow, seq) is traced.
func (s Sampler) Sample(flow uint32, seq uint64) bool {
	if s.n == 0 {
		return false
	}
	return rng.Mix(s.seed, uint64(flow), seq)%s.n == 0
}

// TraceEvent is one Chrome trace-event (the JSON Perfetto and
// chrome://tracing load). Ts and Dur are microseconds of virtual time; Pid
// groups a scenario run, Tid groups a flow, so a trace opens as one track
// per flow with hop spans laid end to end.
type TraceEvent struct {
	Name  string  `json:"name"`
	Cat   string  `json:"cat"`
	Phase string  `json:"ph"`
	Ts    float64 `json:"ts"`
	// Dur is always encoded: complete events with zero duration are real
	// (the final hop's arrival can coincide with delivery) and the schema
	// requires dur on every "X" event.
	Dur   float64    `json:"dur"`
	Pid   int        `json:"pid"`
	Tid   int64      `json:"tid"`
	Scope string     `json:"s,omitempty"`
	Args  *TraceArgs `json:"args,omitempty"`
}

// TraceArgs carries the per-hop accounting the motivation asks for: which
// node held the packet, how long the frame waited behind the transmitter
// queue, and (on the terminal instant event) why the packet ended.
type TraceArgs struct {
	Flow   uint32  `json:"flow"`
	Seq    uint64  `json:"seq"`
	Node   int32   `json:"node"`
	WaitUs float64 `json:"wait_us"`
	Drop   string  `json:"drop,omitempty"`
}

// hopRec is the in-flight record of one hop, buffered until the packet
// finishes so span durations can be computed from consecutive arrivals.
type hopRec struct {
	node    int32
	arrival time.Duration
	wait    time.Duration
}

// Tracer owns the sampled path traces of one deterministic run. It is
// single-goroutine, like the run that feeds it: events append in virtual
// event order, which is itself a pure function of (scenario, seed, run), so
// the serialized trace is byte-identical at any worker count. A nil *Tracer
// is fully inert — Start returns a nil *PacketTrace whose methods no-op —
// which is the entire disabled path.
type Tracer struct {
	sampler Sampler
	pid     int
	events  []TraceEvent
	free    []*PacketTrace
}

// NewTracer builds a tracer sampling 1-in-every packets; pid tags every
// event (scenario runs use the run index).
func NewTracer(seed int64, every, pid int) *Tracer {
	return &Tracer{sampler: NewSampler(seed, every), pid: pid}
}

// Start begins a packet trace if (flow, seq) is sampled, else returns nil.
// Nil-safe on the receiver.
func (t *Tracer) Start(flow uint32, seq uint64) *PacketTrace {
	if t == nil || !t.sampler.Sample(flow, seq) {
		return nil
	}
	var pt *PacketTrace
	if n := len(t.free); n > 0 {
		pt = t.free[n-1]
		t.free = t.free[:n-1]
		pt.hops = pt.hops[:0]
	} else {
		pt = &PacketTrace{t: t}
	}
	pt.flow, pt.seq = flow, seq
	return pt
}

// Events returns the accumulated trace (nil-safe).
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	return t.events
}

// PacketTrace records one sampled packet's path. All methods are safe on a
// nil receiver — the data plane calls them unconditionally.
type PacketTrace struct {
	t    *Tracer
	flow uint32
	seq  uint64
	hops []hopRec
}

// Hop records arrival at node, with the transmit-queue wait the frame that
// carried it here experienced (0 on the first hop and over ideal media).
func (pt *PacketTrace) Hop(node int32, arrival, wait time.Duration) {
	if pt == nil {
		return
	}
	pt.hops = append(pt.hops, hopRec{node: node, arrival: arrival, wait: wait})
}

// Finish closes the trace with an outcome ("delivered", "no-route",
// "ttl-expired", "medium-loss"), emitting one complete-span event per hop —
// each span lasting until the next arrival — plus a terminal instant event,
// and recycles the record.
func (pt *PacketTrace) Finish(outcome string, end time.Duration) {
	if pt == nil {
		return
	}
	t := pt.t
	for i, h := range pt.hops {
		until := end
		if i+1 < len(pt.hops) {
			until = pt.hops[i+1].arrival
		}
		t.events = append(t.events, TraceEvent{
			Name:  fmt.Sprintf("n%d", h.node),
			Cat:   "packet",
			Phase: "X",
			Ts:    micros(h.arrival),
			Dur:   micros(until - h.arrival),
			Pid:   t.pid,
			Tid:   int64(pt.flow),
			Args:  &TraceArgs{Flow: pt.flow, Seq: pt.seq, Node: h.node, WaitUs: micros(h.wait)},
		})
	}
	last := TraceArgs{Flow: pt.flow, Seq: pt.seq}
	if n := len(pt.hops); n > 0 {
		last.Node = pt.hops[n-1].node
	}
	if outcome != "delivered" {
		last.Drop = outcome
	}
	t.events = append(t.events, TraceEvent{
		Name:  outcome,
		Cat:   "packet",
		Phase: "i",
		Ts:    micros(end),
		Pid:   t.pid,
		Tid:   int64(pt.flow),
		Scope: "t",
		Args:  &last,
	})
	t.free = append(t.free, pt)
}

// micros converts virtual time to the trace format's microsecond unit.
func micros(d time.Duration) float64 {
	return float64(d) / float64(time.Microsecond)
}

// WriteTrace serializes events as a Chrome trace-event JSON object —
// loadable directly in Perfetto (ui.perfetto.dev) or chrome://tracing. The
// encoding is deterministic: fixed struct field order, events in the order
// given.
func WriteTrace(w io.Writer, events []TraceEvent) error {
	if events == nil {
		events = []TraceEvent{}
	}
	doc := struct {
		TraceEvents     []TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(doc)
}
