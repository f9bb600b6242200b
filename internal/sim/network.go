// Package sim is the discrete-event network simulator the protocol stack
// runs on: a deterministic event core (internal/des) in virtual time and a
// pluggable radio medium — by default the ideal MAC (no interference, no
// collisions, fixed propagation delay) over a unit-disk physical graph, the
// paper's simulation model ("our own C simulator that assumes an ideal MAC
// layer", Sec. IV-A).
package sim

import (
	"fmt"
	"time"

	"qolsr/internal/des"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/obs"
	"qolsr/internal/olsr"
	"qolsr/internal/rng"
)

// TrafficStats accounts control traffic by message type. TC traffic is
// additionally split by role: TCBytes is the on-air total, of which
// TCOriginatedBytes were first transmissions at the origin and
// TCForwardedBytes were relay re-broadcasts (TCBytes = originated +
// forwarded; likewise TCMessages = TCOriginated + TCForwarded). The split
// is what the overhead sweep reads — relay minimisation and fish-eye
// scoping attack the forwarded share, delta encoding the per-message size.
type TrafficStats struct {
	HelloMessages uint64
	HelloBytes    uint64
	TCMessages    uint64 // including MPR re-broadcasts
	TCBytes       uint64
	TCOriginated  uint64
	// TCOriginatedBytes counts first transmissions at the origin (full TCs
	// and deltas alike).
	TCOriginatedBytes uint64
	// TCForwarded / TCForwardedBytes count MPR re-broadcasts.
	TCForwarded      uint64
	TCForwardedBytes uint64
	// DupSuppressed counts TC-family receptions dropped by the simulator's
	// flood duplicate suppression (see floodState). On the ideal medium a
	// receiver is filtered when the frame is sent, on every other when it
	// lands; either way the count lands with the frame.
	DupSuppressed uint64
}

// Network runs one OLSR/QOLSR protocol instance per node of a physical
// graph over the event engine. Messages are accounted at their wire-codec
// length (so byte counts reflect real TC sizes, which scale with the
// advertised-set sizes of Figs. 6-7), and every receiver handles the
// origin's own message.
type Network struct {
	// Engine is the single-threaded event scheduler everything runs on, in
	// one (time, seq) total order: hot subsystems book pooled or
	// persistent des.Events, low-rate bookkeeping (phases, harness
	// callbacks) a des.Func closure.
	Engine *des.Queue
	Phys   *graph.Graph
	Nodes  []*olsr.Node
	Stats  TrafficStats
	// Data accounts data-plane packets injected with SendDataTraced.
	Data DataStats
	// Tracer, when non-nil, records sampled data-packet path traces. The
	// data plane guards every touch with one pointer compare, so a nil
	// tracer costs nothing and changes nothing.
	Tracer *obs.Tracer

	cfg     olsr.Config
	channel string
	medium  Medium
	// jitter holds one emission-jitter stream per node, keyed by
	// (seed, node index): a node's jitter draws are a pure function of
	// its own key and draw count — platform-stable (no math/rand) and
	// independent of every other node's emission schedule.
	jitter  []rng.Stream
	indexOf map[int64]int32
	down    map[[2]int32]bool // failed physical links (see churn.go)
	dsts    []int32           // broadcast candidate scratch

	// Hot-path pools: periodic emissions, frame deliveries and data packets
	// are persistent or recycled des events, so the steady-state event flow
	// allocates nothing (see doc.go, "Event-driven core").
	emitters  []emitter
	framePool []*controlFrame
	hopPool   []*frameHop
	pktPool   []*dataPacket
	floodPool []*floodState
	unicast   [1]int32 // data-plane next-hop scratch (kept off the heap)
	// ideal is the medium when it is the ideal MAC (nil on every other):
	// its plan is a constant — every candidate after ideal.prop, nothing
	// touched but the counters — so the data plane and broadcastFrame plan
	// inline, and a flood claims its receivers when a frame is sent.
	ideal *IdealMedium

	// fwd caches resolved forwarding decisions per (destination, node),
	// valid while the node's routing-table serial and the physical link
	// generation both stand still — sustained flows resolve each hop once
	// per table rebuild instead of once per packet. Rows are allocated
	// lazily, only for destinations that data is sent to.
	fwd     [][]fwdEntry
	linkGen uint64 // bumped on every churn/mobility change to Phys or down
}

// fwdEntry is one cached forwarding decision (see Network.fwd). It keys on
// the snapshot's serial rather than holding the snapshot, so a table is
// garbage as soon as its node rebuilds.
type fwdEntry struct {
	serial uint64
	gen    uint64
	next   int32
	ok     bool
}

// NetworkOptions tunes the simulation harness.
type NetworkOptions struct {
	// Seed drives emission jitter.
	Seed int64
	// Medium is the radio model transmissions run through (default: the
	// ideal MAC, NewIdealMedium(0)).
	Medium Medium
}

// NewNetwork builds a protocol network over the physical graph. Link QoS
// weights come from the graph channel named after cfg.Metric. SenseRTT is
// rejected: the simulator measures no round trips to price links with.
func NewNetwork(phys *graph.Graph, cfg olsr.Config, opts NetworkOptions) (*Network, error) {
	if cfg.LinkSensing == olsr.SenseRTT {
		return nil, fmt.Errorf("sim: SenseRTT needs round trips, which the simulator never measures")
	}
	channel := cfg.Metric.Name()
	if _, err := phys.Weights(channel); err != nil {
		return nil, err
	}
	medium := opts.Medium
	if medium == nil {
		medium = NewIdealMedium(0)
	}
	nw := &Network{
		Engine:  &des.Queue{},
		Phys:    phys,
		cfg:     cfg,
		channel: channel,
		medium:  medium,
		jitter:  make([]rng.Stream, phys.N()),
		indexOf: make(map[int64]int32, phys.N()),
		fwd:     make([][]fwdEntry, phys.N()),
	}
	for i := range nw.jitter {
		nw.jitter[i] = rng.NewStream(uint64(opts.Seed), uint64(i))
	}
	// One field: the nodes share the origin-major store their TC-learned
	// topology lives in (olsr.NewNodes), so each origin's rows are one block
	// however many receivers the flood reaches.
	ids := make([]int64, phys.N())
	for x := range ids {
		ids[x] = int64(phys.ID(int32(x)))
		nw.indexOf[ids[x]] = int32(x)
	}
	nodes, err := olsr.NewNodes(ids, cfg)
	if err != nil {
		return nil, err
	}
	nw.Nodes = nodes
	medium.Attach(nw)
	if im, ok := medium.(*IdealMedium); ok {
		nw.ideal = im
	}
	return nw, nil
}

// Medium returns the radio model this network transmits through.
func (nw *Network) Medium() Medium { return nw.medium }

// Metric returns the QoS metric the network's nodes route with — what
// their routing-table Values are composed under.
func (nw *Network) Metric() metric.Metric { return nw.cfg.Metric }

// LinkSensing returns what writes the nodes' link tables; under
// olsr.SenseDelivery routing-table Values are ETX or delivery products.
func (nw *Network) LinkSensing() olsr.LinkSensing { return nw.cfg.LinkSensing }

// HopDelayBound returns the medium's per-hop latency bound — what harnesses
// size packet drain windows with.
func (nw *Network) HopDelayBound() time.Duration { return nw.medium.HopDelayBound() }

// Start schedules the initial link measurements and the periodic HELLO/TC
// emissions with per-node jitter, then the network is ready to Run. Each
// node's two emitters are persistent events rescheduling themselves for the
// lifetime of the run.
func (nw *Network) Start() {
	nw.emitters = make([]emitter, 2*len(nw.Nodes))
	for i := range nw.Nodes {
		nw.feedLinks(i)
		helloJitter := time.Duration(nw.jitter[i].Int63n(int64(nw.cfg.HelloInterval)))
		tcJitter := nw.cfg.HelloInterval + time.Duration(nw.jitter[i].Int63n(int64(nw.cfg.TCInterval)))
		hello := &nw.emitters[2*i]
		*hello = emitter{nw: nw, node: i, kind: emitHello}
		tc := &nw.emitters[2*i+1]
		*tc = emitter{nw: nw, node: i, kind: emitTC}
		nw.Engine.At(helloJitter, hello)
		nw.Engine.At(tcJitter, tc)
	}
}

// emitter is one node's persistent periodic-emission event.
type emitter struct {
	nw   *Network
	node int
	kind uint8
}

const (
	emitHello uint8 = iota
	emitTC
)

// Fire implements des.Event: emit, then reschedule with fresh jitter.
func (em *emitter) Fire(time.Duration) {
	nw, i := em.nw, em.node
	var interval time.Duration
	if em.kind == emitHello {
		nw.emitHelloNow(i)
		interval = nw.cfg.HelloInterval
	} else {
		nw.emitTCNow(i)
		interval = nw.cfg.TCInterval
	}
	nw.Engine.After(nw.jittered(i, interval), em)
}

// Run advances virtual time.
func (nw *Network) Run(until time.Duration) { nw.Engine.Run(until) }

// feedLinks refreshes a node's own link measurements from the physical
// graph — the out-of-scope QoS metric layer of the paper. Under measured
// QoS the oracle is silent: nodes learn their links only from what the
// medium actually delivers (olsr link sensing).
func (nw *Network) feedLinks(i int) {
	if nw.cfg.LinkSensing == olsr.SenseDelivery {
		return
	}
	w, _ := nw.Phys.Weights(nw.channel)
	x := int32(i)
	now := nw.Engine.Now()
	for _, arc := range nw.Phys.Arcs(x) {
		if !nw.LinkUp(x, arc.To) {
			continue
		}
		nw.Nodes[i].UpdateLink(int64(nw.Phys.ID(arc.To)), w[arc.Edge], now)
	}
}

// emitHelloNow sends the node's periodic HELLO. The frame carries the
// origin's own message, by value, to every receiver, and the byte counters
// take its encoded length: the wire codec is canonical (Unmarshal(Marshal(h))
// reproduces h; the fuzzers and TestGeneratedMessagesRoundTrip pin it), so
// encoding and decoding would only re-derive what the sender already holds.
func (nw *Network) emitHelloNow(i int) {
	nw.feedLinks(i)
	h := nw.Nodes[i].GenerateHello(nw.Engine.Now())
	nw.Stats.HelloMessages++
	nw.Stats.HelloBytes += uint64(olsr.HelloLen(h))
	nw.broadcastFrame(int32(i), olsr.HelloLen(h), 0, h, nil)
}

// emitTCNow floods the node's periodic topology-control emission: a full TC
// at unlimited scope on the classic plane, a delta and/or a fish-eye TTL
// when the configuration asks for them. The flood owns the message.
func (nw *Network) emitTCNow(i int) {
	full, delta, ttl := nw.Nodes[i].GenerateTCUpdate(nw.Engine.Now())
	if full == nil && delta == nil {
		return
	}
	fs, size := nw.newFlood(), 0
	if full != nil {
		fs.tc, size = *full, olsr.TCLen(full)
	} else {
		fs.tcd, size = delta, olsr.TCDeltaLen(delta)
	}
	nw.Stats.TCOriginated++
	nw.Stats.TCMessages++
	nw.Stats.TCBytes += uint64(size)
	nw.Stats.TCOriginatedBytes += uint64(size)
	nw.broadcastFrame(int32(i), size, int32(ttl), nil, fs)
}

// take pops an object from a hot-path pool, or makes one when it is empty.
func take[T any](pool *[]*T) *T {
	if n := len(*pool); n > 0 {
		x := (*pool)[n-1]
		*pool = (*pool)[:n-1]
		return x
	}
	return new(T)
}

// jittered applies ±5% emission jitter (RFC 3626 recommends jitter to avoid
// synchronisation), drawn from the emitting node's own stream.
func (nw *Network) jittered(i int, d time.Duration) time.Duration {
	span := int64(d) / 10
	if span <= 0 {
		return d
	}
	return d - time.Duration(span/2) + time.Duration(nw.jitter[i].Int63n(span))
}

// controlFrame is one in-flight control broadcast, shared read-only by
// every receiver — protocol handlers copy what they keep, so one message
// serves the whole reception set. A HELLO travels in the frame by value; a
// TC-family frame reads its message from its flood. Frames are pooled;
// when every planned delivery has the same latency the frame itself is the
// single delivery event for all receivers.
type controlFrame struct {
	frameHead
	// hello is the HELLO a frame without a flood carries. It lies outside
	// the head, so a TC transmission does not reset it.
	hello olsr.Hello
}

// frameHead is the per-transmission part of a frame, reset by every send.
type frameHead struct {
	nw   *Network
	from int32
	refs int32
	size int32 // the message's encoded length
	ttl  int32 // fish-eye scope left at this transmission (0 = unlimited)
	// claimed marks a frame planned on the ideal medium: dsts holds only
	// first sightings, and dups the receivers filtered when it was sent.
	claimed bool
	dups    uint32
	dsts    []int32
	flood   *floodState // shared along the relay chain; nil for a HELLO
}

// floodState is one flood: its message, which every frame of the flood
// reads (a full TC by value; a delta stays the origin's heap struct, as
// topology blocks memoise a delta's result by its address), and a bitset
// over receiver indices recording who has already been handed this (origin,
// seq) message. The simulator owns exactly one per flood, shared by every
// relayed frame of that flood and released to the pool when the last frame
// drains: this is how it keeps olsr.Node's contract that the host hands
// each flooded message to a node at most once, at one bit probe per
// delivery.
//
// On a medium of variable latency a frame sent later can land first, so a
// receiver's bit is set when a frame lands there. On the ideal medium every
// frame lands exactly ideal.prop after it is sent, through the scheduler's
// FIFO lane, so frames land in the order they are sent: the first frame sent
// to a receiver is the first to land, and broadcastFrame sets the bit at
// send time. The frame then carries only first sightings; the receivers it
// filtered count as DupSuppressed when it fires, and it stays one event even
// when it carries none, so events and counters agree at every event boundary.
//
// One set per flood suppresses what an (origin, seq) window would: a
// flood's frames outlive every in-flight duplicate of it (frames hold the
// state refcounted), and an (origin, seq) pair never recurs within a hold
// time (sequence wrap takes orders of magnitude longer). The origin's own
// bit starts unset, so its own message looping back is handed to it once,
// as the daemon's window hands it.
type floodState struct {
	visited []uint64
	refs    int32
	tc      olsr.TC
	tcd     *olsr.TCDelta // the delta when the flood carries one, else nil
}

// claim marks receiver i and returns 1 when this is its first sighting of
// the flood, 0 otherwise, without branching on which.
func (fs *floodState) claim(i int32) int {
	w, b := i>>6, uint32(i)&63
	old := fs.visited[w]
	fs.visited[w] = old | 1<<b
	return int(^old>>b) & 1
}

// newFlood returns a pooled flood whose visited set is cleared and sized
// for the current field.
func (nw *Network) newFlood() *floodState {
	fs := take(&nw.floodPool)
	words := (nw.Phys.N() + 63) / 64
	if cap(fs.visited) < words {
		fs.visited = make([]uint64, words)
	} else {
		fs.visited = fs.visited[:words]
		clear(fs.visited)
	}
	fs.refs = 0
	return fs
}

// Fire implements des.Event: deliver the frame to every batched receiver.
func (f *controlFrame) Fire(time.Duration) {
	f.nw.Stats.DupSuppressed += uint64(f.dups)
	for _, to := range f.dsts {
		f.nw.deliverFrame(f, to)
	}
	f.release()
}

// frameHop is one planned reception of a frame whose receivers see different
// latencies (lossy medium): per-receiver events sharing one frame.
type frameHop struct {
	f  *controlFrame
	to int32
}

// Fire implements des.Event.
func (h *frameHop) Fire(time.Duration) {
	f, to := h.f, h.to
	h.f = nil
	f.nw.deliverFrame(f, to)
	f.release()
	f.nw.hopPool = append(f.nw.hopPool, h)
}

// release returns the frame to its pool once every reception fired, and the
// flood state once no frame of the flood remains in flight. Neither keeps
// its message's slices.
func (f *controlFrame) release() {
	f.refs--
	if f.refs <= 0 {
		if fs := f.flood; fs == nil {
			f.hello = olsr.Hello{}
		} else if fs.refs--; fs.refs <= 0 {
			fs.tc, fs.tcd = olsr.TC{}, nil
			f.nw.floodPool = append(f.nw.floodPool, fs)
		}
		f.flood = nil
		f.nw.framePool = append(f.nw.framePool, f)
	}
}

// broadcastFrame hands a size-byte message — hello, copied into the frame,
// or flood's — to the medium for delivery to the sender's currently-up
// physical neighbors: the medium decides who receives the frame and after
// how long. Failed links carry nothing regardless of the medium. ttl is the
// frame's remaining flood scope at this transmission (0 = unlimited).
func (nw *Network) broadcastFrame(from int32, size int, ttl int32, hello *olsr.Hello, flood *floodState) {
	nw.dsts = nw.dsts[:0]
	for _, arc := range nw.Phys.Arcs(from) {
		if nw.LinkUp(from, arc.To) {
			nw.dsts = append(nw.dsts, arc.To)
		}
	}
	f := take(&nw.framePool)
	f.frameHead = frameHead{nw: nw, from: from, refs: 1, size: int32(size), ttl: ttl, dsts: f.dsts[:0], flood: flood}
	if flood != nil {
		flood.refs++
	} else {
		f.hello = *hello
	}
	if m := nw.ideal; m != nil {
		// The ideal medium's plan, inline: every candidate after m.prop,
		// counted as IdealMedium.PlanFrame counts it and claimed in the
		// flood's visited set now (see floodState).
		m.stats.FramesPlanned++
		m.stats.Receptions += uint64(len(nw.dsts))
		f.dsts = append(f.dsts, nw.dsts...)
		if flood != nil {
			// Every candidate is written; only a first sighting advances.
			n := 0
			for _, to := range nw.dsts {
				f.dsts[n] = to
				n += flood.claim(to)
			}
			f.dups = uint32(len(nw.dsts) - n)
			f.dsts = f.dsts[:n]
		}
		f.claimed = true
		if len(nw.dsts) == 0 {
			f.release()
		} else {
			nw.Engine.AfterFixed(m.prop, f)
		}
		return
	}
	plan := nw.medium.PlanFrame(from, nw.dsts, size, nw.Engine.Now())
	if len(plan) == 0 {
		f.release()
		return
	}
	uniform := true
	for _, hop := range plan[1:] {
		if hop.Delay != plan[0].Delay {
			uniform = false
			break
		}
	}
	if uniform {
		// One pooled event delivers to the whole reception set, in plan
		// order — the exact order separate equal-time events would run in.
		for _, hop := range plan {
			f.dsts = append(f.dsts, hop.Dst)
		}
		// Uniform plans come from constant-latency media, so their
		// scheduled times are monotone — the scheduler's fixed-delay lane
		// (which degrades to a heap push if they ever are not).
		nw.Engine.AfterFixed(plan[0].Delay, f)
		return
	}
	f.refs = int32(len(plan))
	for _, hop := range plan {
		fh := take(&nw.hopPool)
		fh.f, fh.to = f, hop.Dst
		nw.Engine.After(hop.Delay, fh)
	}
}

// deliverFrame hands one received frame to the receiver's protocol node and
// applies the MPR forwarding rule for TCs.
func (nw *Network) deliverFrame(f *controlFrame, to int32) {
	now := nw.Engine.Now()
	node := nw.Nodes[to]
	fs := f.flood
	if fs == nil {
		node.HandleHello(&f.hello, now)
		return
	}
	if !f.claimed && fs.claim(to) == 0 {
		nw.Stats.DupSuppressed++
		return // already handed to this receiver via another relay
	}
	sender := int64(nw.Phys.ID(f.from))
	var forward bool
	if fs.tcd == nil {
		forward = node.HandleTC(&fs.tc, sender, now)
	} else {
		forward = node.HandleTCDelta(fs.tcd, sender, now)
	}
	if forward && f.ttl != 1 {
		// MPR forwarding: re-broadcast from this node in a new frame of the
		// same flood, one fish-eye hop narrower (unlimited stays unlimited).
		// A frame received at TTL 1 has exhausted its scope: the handler
		// above still ingested it, it just travels no further.
		nw.Stats.TCMessages++
		nw.Stats.TCBytes += uint64(f.size)
		nw.Stats.TCForwarded++
		nw.Stats.TCForwardedBytes += uint64(f.size)
		nw.broadcastFrame(to, int(f.size), max(f.ttl-1, 0), nil, fs)
	}
}

// ANSSets returns every node's advertised set as graph indices, suitable
// for route.BuildAdvertised. It selects each set afresh through Node.ANS
// (stepping a node's ANSN when the set changed); to read the sets' sizes
// as held, with no selection, use Node.StateSize.
func (nw *Network) ANSSets() ([][]int32, error) {
	sets := make([][]int32, len(nw.Nodes))
	now := nw.Engine.Now()
	for i, n := range nw.Nodes {
		for _, id := range n.ANS(now) {
			idx, ok := nw.indexOf[id]
			if !ok {
				return nil, fmt.Errorf("sim: node %d advertises unknown id %d", n.ID, id)
			}
			sets[i] = append(sets[i], idx)
		}
	}
	return sets, nil
}

// ControlBytesPerSecond reports the average control traffic rate over the
// elapsed virtual time.
func (nw *Network) ControlBytesPerSecond() float64 {
	secs := nw.Engine.Now().Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(nw.Stats.HelloBytes+nw.Stats.TCBytes) / secs
}
