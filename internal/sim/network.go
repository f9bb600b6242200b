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
	// DupSuppressed counts TC-family deliveries dropped by the simulator's
	// flood duplicate suppression (the external form of the nodes' dup
	// windows — see floodState).
	DupSuppressed uint64
}

// Network runs one OLSR/QOLSR protocol instance per node of a physical
// graph over the event engine. Messages are serialised through the wire
// codec on transmission (so byte accounting reflects real TC sizes, which
// scale with the advertised-set sizes of Figs. 6-7) and decoded at every
// receiver.
type Network struct {
	// Engine is the single-threaded event scheduler everything runs on, in
	// one (time, priority, seq) total order: hot subsystems book pooled or
	// persistent des.Events, low-rate bookkeeping (phases, harness
	// callbacks) a des.Func closure.
	Engine *des.Queue
	Phys   *graph.Graph
	Nodes  []*olsr.Node
	Stats  TrafficStats
	// Data accounts data-plane packets injected with SendData.
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
	// idealHop short-circuits data-plane frame planning on the ideal
	// medium: its unicast plan is always {next, idealHop} with no medium
	// state touched, so stepData skips the PlanFrame call. Zero on every
	// other medium.
	idealHop time.Duration

	// fwd caches resolved forwarding decisions per (node, destination),
	// valid while the node's routing-table snapshot pointer and the
	// physical link generation both stand still — sustained flows resolve
	// each hop once per table rebuild instead of once per packet. Rows are
	// allocated lazily, only for nodes that actually forward data.
	fwd     [][]fwdEntry
	linkGen uint64 // bumped on every churn/mobility change to Phys or down
}

// fwdEntry is one cached forwarding decision (see Network.fwd).
type fwdEntry struct {
	routes *olsr.Routes
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
// weights come from the graph channel named after cfg.Metric.
func NewNetwork(phys *graph.Graph, cfg olsr.Config, opts NetworkOptions) (*Network, error) {
	channel := cfg.Metric.Name()
	if _, err := phys.Weights(channel); err != nil {
		return nil, err
	}
	medium := opts.Medium
	if medium == nil {
		medium = NewIdealMedium(0)
	}
	// The simulator owns flood duplicate suppression (one pooled visited
	// bitset per flood, shared along the relay chain — see floodState), so
	// the nodes skip their own per-origin windows. Observably identical,
	// and one bit probe replaces a map access per TC delivery.
	cfg.ExternalDupSuppression = true
	nw := &Network{
		Engine:  &des.Queue{},
		Phys:    phys,
		cfg:     cfg,
		channel: channel,
		medium:  medium,
		jitter:  make([]rng.Stream, phys.N()),
		indexOf: make(map[int64]int32, phys.N()),
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
		nw.idealHop = im.prop
	}
	return nw, nil
}

// Medium returns the radio model this network transmits through.
func (nw *Network) Medium() Medium { return nw.medium }

// Metric returns the QoS metric the network's nodes route with — what
// their routing-table Values are composed under.
func (nw *Network) Metric() metric.Metric { return nw.cfg.Metric }

// MeasuredQoS reports whether the nodes sense link quality by measured HELLO
// delivery (olsr.SenseDelivery; the simulator feeds no round trips) instead
// of the topology oracle — routing-table Values are then in measured-quality
// units (ETX, delivery product), not oracle weights.
func (nw *Network) MeasuredQoS() bool { return nw.cfg.LinkSensing == olsr.SenseDelivery }

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
	if nw.MeasuredQoS() {
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

func (nw *Network) emitHelloNow(i int) {
	nw.feedLinks(i)
	h := nw.Nodes[i].GenerateHello(nw.Engine.Now())
	buf := olsr.MarshalHello(h)
	nw.Stats.HelloMessages++
	nw.Stats.HelloBytes += uint64(len(buf))
	// The origin's own struct is the decoded form every receiver handles:
	// the wire codec is canonical (Unmarshal(Marshal(h)) reproduces h, the
	// fuzzers pin it), so decoding per receiver would only re-derive what
	// the sender already holds.
	nw.broadcastFrame(int32(i), buf, h, nil, nil, 0, nil)
}

// emitTCNow floods the node's periodic topology-control emission: a full TC
// at unlimited scope on the classic plane, a delta and/or a fish-eye TTL
// when the configuration asks for them.
func (nw *Network) emitTCNow(i int) {
	full, delta, ttl := nw.Nodes[i].GenerateTCUpdate(nw.Engine.Now())
	var buf []byte
	switch {
	case full != nil:
		buf = olsr.MarshalTC(full)
	case delta != nil:
		buf = olsr.MarshalTCDelta(delta)
	default:
		return
	}
	nw.Stats.TCOriginated++
	nw.Stats.TCMessages++
	nw.Stats.TCBytes += uint64(len(buf))
	nw.Stats.TCOriginatedBytes += uint64(len(buf))
	nw.broadcastFrame(int32(i), buf, nil, full, delta, int32(ttl), nil)
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

// controlFrame is one in-flight control broadcast: the encoded bytes (byte
// accounting, re-broadcast) plus the decoded form shared read-only by every
// receiver — protocol handlers copy what they keep, so one decoded message
// serves the whole reception set. Frames are pooled; when every planned
// delivery has the same latency (the ideal medium) the frame itself is the
// single delivery event for all receivers.
type controlFrame struct {
	nw    *Network
	from  int32
	refs  int32
	buf   []byte
	hello *olsr.Hello
	tc    *olsr.TC
	tcd   *olsr.TCDelta
	// ttl is the remaining flood scope when the frame was transmitted
	// (fish-eye scoping; 0 = unlimited). It travels alongside the frame
	// rather than on the wire, so scoped runs reuse the unchanged codec.
	ttl  int32
	dsts []int32
	// flood is the per-flood visited set shared along a TC-family frame's
	// whole relay chain (nil for HELLOs, which never flood).
	flood *floodState
}

// floodState is one flood's duplicate-suppression state: a bitset over
// receiver indices recording who has already been handed this (origin, seq)
// message. The simulator owns exactly one per flood, shared by every relayed
// frame of that flood and released to the pool when the last frame drains —
// replacing N per-node duplicate tables (one map probe plus a window scan per
// delivery) with a single bit probe. The protocol nodes run with
// Config.ExternalDupSuppression and skip their own window entirely.
//
// The replacement is observably identical to the per-node windows: a
// suppressed delivery used to return before touching any state a later
// handler could see, a flood's frames outlive every in-flight duplicate of
// it (frames hold the state refcounted), and an (origin, seq) pair never
// recurs within a duplicate window's lifetime (sequence wrap takes orders of
// magnitude longer than the hold time). The origin's own bit starts unset,
// exactly like its duplicate window before its own message loops back.
type floodState struct {
	visited []uint64
	refs    int32
}

// testAndSet reports whether receiver i already saw this flood, marking it
// either way.
func (fs *floodState) testAndSet(i int32) bool {
	w, b := i>>6, uint64(1)<<(uint32(i)&63)
	if fs.visited[w]&b != 0 {
		return true
	}
	fs.visited[w] |= b
	return false
}

// newFlood returns a cleared visited set sized for the current field.
func (nw *Network) newFlood() *floodState {
	var fs *floodState
	if n := len(nw.floodPool); n > 0 {
		fs = nw.floodPool[n-1]
		nw.floodPool = nw.floodPool[:n-1]
	} else {
		fs = &floodState{}
	}
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

func (nw *Network) newFrame(from int32, buf []byte, hello *olsr.Hello, tc *olsr.TC, tcd *olsr.TCDelta, ttl int32) *controlFrame {
	var f *controlFrame
	if n := len(nw.framePool); n > 0 {
		f = nw.framePool[n-1]
		nw.framePool = nw.framePool[:n-1]
	} else {
		f = &controlFrame{nw: nw}
	}
	f.from = from
	f.buf = buf
	f.hello = hello
	f.tc = tc
	f.tcd = tcd
	f.ttl = ttl
	f.dsts = f.dsts[:0]
	return f
}

// release returns the frame to its pool once every reception fired, and the
// flood state once no frame of the flood remains in flight.
func (f *controlFrame) release() {
	f.refs--
	if f.refs <= 0 {
		if fs := f.flood; fs != nil {
			f.flood = nil
			if fs.refs--; fs.refs <= 0 {
				f.nw.floodPool = append(f.nw.floodPool, fs)
			}
		}
		f.buf, f.hello, f.tc, f.tcd = nil, nil, nil, nil
		f.nw.framePool = append(f.nw.framePool, f)
	}
}

// broadcastFrame hands a message (encoded and decoded forms) to the medium
// for delivery to the sender's currently-up physical neighbors: the medium
// decides who receives the frame and after how long. Failed links carry
// nothing regardless of the medium. ttl is the frame's remaining flood
// scope at this transmission (0 = unlimited).
func (nw *Network) broadcastFrame(from int32, buf []byte, hello *olsr.Hello, tc *olsr.TC, tcd *olsr.TCDelta, ttl int32, flood *floodState) {
	nw.dsts = nw.dsts[:0]
	for _, arc := range nw.Phys.Arcs(from) {
		if nw.LinkUp(from, arc.To) {
			nw.dsts = append(nw.dsts, arc.To)
		}
	}
	plan := nw.medium.PlanFrame(from, nw.dsts, len(buf), nw.Engine.Now())
	if len(plan) == 0 {
		return
	}
	if flood == nil && (tc != nil || tcd != nil) {
		// A flood's first transmission: allocate its visited set. The
		// origin's own bit stays unset — its message looping back is a
		// first sighting, exactly as under the per-node windows.
		flood = nw.newFlood()
	}
	uniform := true
	for _, hop := range plan[1:] {
		if hop.Delay != plan[0].Delay {
			uniform = false
			break
		}
	}
	f := nw.newFrame(from, buf, hello, tc, tcd, ttl)
	if flood != nil {
		f.flood = flood
		flood.refs++
	}
	if uniform {
		// One pooled event delivers to the whole reception set, in plan
		// order — the exact order separate equal-time events would run in.
		for _, hop := range plan {
			f.dsts = append(f.dsts, hop.Dst)
		}
		f.refs = 1
		// Uniform plans come from constant-latency media, so their
		// scheduled times are monotone — the scheduler's fixed-delay lane
		// (which degrades to a heap push if they ever are not).
		nw.Engine.AfterFixed(plan[0].Delay, f)
		return
	}
	f.refs = int32(len(plan))
	for _, hop := range plan {
		var fh *frameHop
		if n := len(nw.hopPool); n > 0 {
			fh = nw.hopPool[n-1]
			nw.hopPool = nw.hopPool[:n-1]
		} else {
			fh = &frameHop{}
		}
		fh.f = f
		fh.to = hop.Dst
		nw.Engine.After(hop.Delay, fh)
	}
}

// deliverFrame hands one received frame to the receiver's protocol node and
// applies the MPR forwarding rule for TCs.
func (nw *Network) deliverFrame(f *controlFrame, to int32) {
	now := nw.Engine.Now()
	node := nw.Nodes[to]
	if f.hello != nil {
		node.HandleHello(f.hello, now)
		return
	}
	if f.flood.testAndSet(to) {
		nw.Stats.DupSuppressed++
		return // already handed to this receiver via another relay
	}
	sender := int64(nw.Phys.ID(f.from))
	var forward bool
	if f.tc != nil {
		forward = node.HandleTC(f.tc, sender, now)
	} else {
		forward = node.HandleTCDelta(f.tcd, sender, now)
	}
	if forward && f.ttl != 1 {
		// MPR forwarding: re-broadcast from this node, reusing the encoded
		// and decoded forms. A frame received at TTL 1 has exhausted its
		// scope: the handler above still ingested it (dup-marked and
		// topology-applied), it just travels no further.
		nw.relayTC(f, to)
	}
}

// relayTC re-broadcasts a TC-family frame from a relay, decrementing the
// fish-eye scope (an unlimited frame stays unlimited).
func (nw *Network) relayTC(f *controlFrame, to int32) {
	ttl := f.ttl
	if ttl > 0 {
		ttl--
	}
	nw.Stats.TCMessages++
	nw.Stats.TCBytes += uint64(len(f.buf))
	nw.Stats.TCForwarded++
	nw.Stats.TCForwardedBytes += uint64(len(f.buf))
	nw.broadcastFrame(to, f.buf, nil, f.tc, f.tcd, ttl, f.flood)
}

// ANSSets returns every node's current advertised set as graph indices,
// suitable for route.BuildAdvertised.
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
