package traffic

import (
	"fmt"
	"time"

	"qolsr/internal/des"
	"qolsr/internal/obs"
	"qolsr/internal/rng"
	"qolsr/internal/sim"
	"qolsr/internal/stats"
)

// Counters are the engine's cumulative packet totals, cheap to snapshot —
// harnesses diff them per sampling window.
type Counters struct {
	// Sent counts packets handed to the data plane.
	Sent uint64
	// Completed counts packets that finished (delivered or dropped).
	Completed uint64
	// Delivered counts packets that reached their destination.
	Delivered uint64
	// BytesDelivered sums the sizes of delivered packets.
	BytesDelivered uint64
}

// classAcc is one flow class's admission decisions and delivered-packet
// distribution. Its packet counts are its flows', summed on read.
type classAcc struct {
	admitted, rejected uint64
	d                  *dist
}

// flowState is one flow's live state inside the engine. It is also the
// flow's departure event: once admitted, the flowState reschedules itself
// for every packet, so a sustained flow costs zero allocations per packet
// on the scheduling side.
type flowState struct {
	Flow
	eng      *Engine
	cls      *classAcc
	src      source
	decision Decision
	decided  bool
	seq      uint64 // emitted-packet sequence

	// The flow's packet tallies are the engine's only per-packet
	// counters: Counters and the class collectors sum them on read.
	sent, completed, delivered, bytesDelivered uint64
	// d is the flow's delivered-packet distribution, folded off the event
	// loop (see fold.go).
	d *dist
}

// Fire implements des.Event: emit the flow's next packet and book the one
// after. The flowState is its own persistent event, so the cycle allocates
// nothing per packet.
func (fs *flowState) Fire(now time.Duration) {
	e := fs.eng
	e.emit(fs)
	if next := fs.src.next(now, fs.seq); next <= e.stop {
		e.nw.Engine.At(next, fs)
	}
}

// Engine drives sustained flows through a live network: each admitted flow
// emits packets on its class's arrival process, every packet traverses the
// routing tables and the radio medium hop by hop (contending for the
// per-node transmit queues like any other frame), and deliveries feed the
// per-flow accounting. The engine schedules everything on the network's
// own event engine; the caller advances virtual time with Network.Run.
//
// The packet counters are current after every event. The delay and jitter
// distributions are folded in batches of delivered packets, on a
// worker goroutine when a second P can run one; Report and the lazy
// violation collectors flush the fold before they read them.
type Engine struct {
	nw      *sim.Network
	gate    Gate
	base    uint64
	stop    time.Duration
	started bool

	flows    []*flowState
	classes  []string
	classAcc map[string]*classAcc
	// total is the whole mix's delivered-packet distribution.
	total *dist

	// batch holds the deliveries not yet handed to the fold; spare is the
	// batch in flight (inFlight) or the next free buffer. w is the running
	// fold worker: Start starts it, Report stops it, a full batch after a
	// Report starts another, and at GOMAXPROCS 1 there is none.
	batch, spare []delivery
	inFlight     bool
	w            *folder
}

// NewEngine builds a traffic engine over the network. seed keys every
// packet arrival and size draw (domain-separated from the network's other
// streams).
func NewEngine(nw *sim.Network, seed int64) *Engine {
	return &Engine{
		nw:       nw,
		gate:     Gate{NW: nw},
		base:     rng.Mix(uint64(seed), 0x7F10), // domain-separate the flow draws
		classAcc: make(map[string]*classAcc),
		total:    newDist(),
		batch:    make([]delivery, 0, foldBatch),
	}
}

// Gate returns the engine's admission controller.
func (e *Engine) Gate() *Gate { return &e.gate }

// Add registers one flow. All flows must be added before Start; the flow's
// ID must equal its Add order (it keys the flow's RNG draws).
func (e *Engine) Add(f Flow) error {
	if e.started {
		return fmt.Errorf("traffic: Add after Start")
	}
	if err := CheckClass(f.Class); err != nil {
		return err
	}
	if f.ID != len(e.flows) {
		return fmt.Errorf("traffic: flow ID %d out of order (want %d)", f.ID, len(e.flows))
	}
	if f.Src == f.Dst || f.Src < 0 || f.Dst < 0 || int(f.Src) >= e.nw.Phys.N() || int(f.Dst) >= e.nw.Phys.N() {
		return fmt.Errorf("traffic: flow %d endpoints %d->%d invalid", f.ID, f.Src, f.Dst)
	}
	if f.RateBps <= 0 || f.PacketBytes < MinPacketBytes {
		return fmt.Errorf("traffic: flow %d needs positive rate and packet size >= %d", f.ID, MinPacketBytes)
	}
	fs := &flowState{Flow: f, eng: e, d: newDist()}
	fs.d.p50 = stats.NewQuantile(0.50)
	fs.src = newSource(e.base, f)
	e.flows = append(e.flows, fs)
	if _, ok := e.classAcc[f.Class]; !ok {
		e.classes = append(e.classes, f.Class)
		e.classAcc[f.Class] = &classAcc{d: newDist()}
	}
	fs.cls = e.classAcc[f.Class]
	return nil
}

// FlowsFromSpecs expands a mix of specs into concrete flows over the given
// endpoint pairs, in spec order: spec i's Count flows take the next Count
// pairs. It errors when the mix needs more pairs than provided.
func FlowsFromSpecs(specs []Spec, pairs [][2]int32, defaultStart time.Duration) ([]Flow, error) {
	var flows []Flow
	next := 0
	for _, sp := range specs {
		sp = sp.WithDefaults()
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		start := sp.Start
		if start == 0 {
			start = defaultStart
		}
		for k := 0; k < sp.Count; k++ {
			if next >= len(pairs) {
				return nil, fmt.Errorf("traffic: mix needs %d endpoint pairs, have %d", next+1, len(pairs))
			}
			flows = append(flows, Flow{
				ID:          len(flows),
				Class:       sp.Class,
				Src:         pairs[next][0],
				Dst:         pairs[next][1],
				RateBps:     sp.RateBps,
				PacketBytes: sp.PacketBytes,
				Start:       start,
				Req:         sp.QoS,
			})
			next++
		}
	}
	return flows, nil
}

// Start schedules every flow's admission decision at its start time; flows
// emit no packet after stop. Call once, before advancing the network past
// the earliest flow start.
func (e *Engine) Start(stop time.Duration) error {
	if e.started {
		return fmt.Errorf("traffic: Start called twice")
	}
	e.started = true
	e.stop = stop
	// The worker starts here rather than at the first full batch, so the
	// goroutine's start (and the G it may allocate) falls before the
	// traffic phase a harness times.
	e.startFold()
	for _, fs := range e.flows {
		at := fs.Start
		if now := e.nw.Engine.Now(); at < now {
			at = now
		}
		e.nw.Engine.At(at, des.Func(func() { e.admit(fs) }))
	}
	return nil
}

// admit runs the admission gate on one flow and, when admitted, opens its
// packet schedule.
func (e *Engine) admit(fs *flowState) {
	fs.decision = e.gate.Decide(fs.Src, fs.Dst, fs.Req)
	fs.decided = true
	if !fs.decision.Admitted {
		fs.cls.rejected++
		return
	}
	fs.cls.admitted++
	if first := fs.src.first(e.nw.Engine.Now()); first <= e.stop {
		e.nw.Engine.At(first, fs)
	}
}

// emit sends one packet of fs on the allocation-free data path; the packet
// completes through PacketDone with the flow and size packed in the cookie.
func (e *Engine) emit(fs *flowState) {
	seq := fs.seq
	fs.seq++
	size := fs.src.size(seq)
	fs.sent++

	// Path tracing samples by packet identity (flow, seq) — the keyed draw
	// lives in the tracer; with tracing off this is one nil compare.
	var pt *obs.PacketTrace
	if tr := e.nw.Tracer; tr != nil {
		pt = tr.Start(uint32(fs.ID), seq)
	}
	e.nw.SendDataTraced(fs.Src, fs.Dst, size, e, uint64(fs.ID)<<32|uint64(uint32(size)), pt)
}

// PacketDone implements sim.DataSink: one packet of the cookie's flow
// finished (delivered or dropped). The flow's counters take it at once; a
// delivery joins the batch that the fold applies to the distributions. The
// hop count is not kept: no report carries it.
func (e *Engine) PacketDone(cookie uint64, delivered bool, _ int, latency time.Duration) {
	fs := e.flows[cookie>>32]
	fs.completed++
	if !delivered {
		return
	}
	fs.delivered++
	fs.bytesDelivered += uint64(uint32(cookie))
	e.batch = append(e.batch, delivery{flow: fs.d, cls: fs.cls.d, latency: latency})
	if len(e.batch) == foldBatch {
		e.handOff()
	}
}

// Counters snapshots the engine's cumulative packet totals.
func (e *Engine) Counters() Counters { return e.counters("") }

// counters sums the packet totals of the class's flows, or of every flow
// for class "".
func (e *Engine) counters(class string) Counters {
	var c Counters
	for _, fs := range e.flows {
		if class == "" || fs.Class == class {
			c.Sent += fs.sent
			c.Completed += fs.completed
			c.Delivered += fs.delivered
			c.BytesDelivered += fs.bytesDelivered
		}
	}
	return c
}
