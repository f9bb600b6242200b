package node

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qolsr/internal/core"
	"qolsr/internal/metric"
	"qolsr/internal/obs"
	"qolsr/internal/olsr"
)

// Config parameterises a Daemon.
type Config struct {
	// ID is this node's protocol identifier. Required, and must be unique
	// across the mesh.
	ID int64
	// Transport carries the daemon's frames. Required; the daemon owns it
	// and closes it when Run returns.
	Transport Transport
	// Peers is the static peer table (see Peer). Frames from senders not
	// in it are dropped.
	Peers []Peer
	// HelloInterval and TCInterval are the emission periods (defaults:
	// the olsr RFC-style 2s and 5s; tests shrink them).
	HelloInterval time.Duration
	TCInterval    time.Duration
	// Metric is the QoS metric routing optimises (default metric.Delay(),
	// the natural domain for measured RTT weights).
	Metric metric.Metric
	// Selector computes the advertised neighbor set (default the paper's
	// core.FNBP).
	Selector core.Selector
	// Measured switches link weights from the peer table's declared
	// values to real round-trip measurement (olsr.SenseRTT): the frame
	// layer's echo timestamps feed each link's windowed-minimum RTT, both
	// ends advertise it as a ladder rung in the HELLO LQ block, and both
	// price the link, in milliseconds, at the larger rung.
	Measured bool
	// TTL is the initial hop budget of originated data packets
	// (default 32).
	TTL uint8
	// OnData receives data packets addressed to this node. It is called
	// from the daemon's event loop; handlers must not block. body aliases
	// the receive buffer, which is recycled when the call returns: copy
	// what must outlive it.
	OnData func(src int64, seq uint64, body []byte)
	// Logf, when set, receives debug-level event lines.
	Logf func(format string, args ...any)
}

// Stats counts a daemon's traffic. All fields are cumulative.
type Stats struct {
	FramesIn  uint64 `json:"frames_in"`
	FramesOut uint64 `json:"frames_out"`
	BytesIn   uint64 `json:"bytes_in"`
	BytesOut  uint64 `json:"bytes_out"`
	// DecodeErrors counts frames or payloads rejected by the codecs —
	// hostile, truncated or foreign input.
	DecodeErrors uint64 `json:"decode_errors"`
	// UnknownSender counts well-formed frames from nodes outside the peer
	// table.
	UnknownSender uint64 `json:"unknown_sender"`
	// SpoofRejects counts HELLOs whose origin disagrees with the frame
	// sender — spoofed or relayed one-hop messages.
	SpoofRejects uint64 `json:"spoof_rejects"`
	// TransportDrops counts inbound datagrams the transport discarded on a
	// full receive queue (before the daemon ever saw them).
	TransportDrops uint64 `json:"transport_drops"`
	SendErrors     uint64 `json:"send_errors"`
	HellosIn       uint64 `json:"hellos_in"`
	TCsIn          uint64 `json:"tcs_in"`
	TCsForwarded   uint64 `json:"tcs_forwarded"`
	DataOriginated uint64 `json:"data_originated"`
	DataForwarded  uint64 `json:"data_forwarded"`
	DataDelivered  uint64 `json:"data_delivered"`
	// DataDropped counts data packets discarded for a dead TTL, a missing
	// route, or a next hop outside the peer table; DataLooped is the TTL
	// share of it — packets that circled until their hop budget ran out.
	DataDropped uint64 `json:"data_dropped"`
	DataLooped  uint64 `json:"data_looped"`
}

// peerState is the daemon's per-peer bookkeeping around the static Peer
// declaration: the echo stamps the RTT instrument needs, and liveness.
type peerState struct {
	id     int64
	addr   string
	weight float64 // declared oracle weight

	// lastRxTx is the TxTime of the newest frame received from the peer
	// (their clock, echoed back verbatim); lastRxAt is our clock at its
	// arrival, so the echo can report how long we held the stamp.
	lastRxTx uint64
	lastRxAt uint64
	// heard is our clock at the newest frame from the peer, 0 if never.
	heard time.Duration
}

// request is one queued Send, or a Status when status says where the report
// goes; the loop answers on res.
type request struct {
	dst    int64
	body   []byte
	status *StatusReport
	res    chan error
}

// Reasons the run loop is poked awake (bits of Daemon.pending).
const (
	wakeTick uint32 = 1 << iota // a HELLO or TC deadline passed
	wakeStop                    // the Run context was cancelled
	wakeReq                     // a request was queued
)

// Daemon runs one olsr.Node over a Transport in wall-clock time. All
// protocol state is owned by the Run loop's goroutine; Status and Send queue
// requests for it (doc.go has the wake protocol), so a Daemon is safe for
// concurrent use around a single Run.
type Daemon struct {
	cfg   Config
	node  *olsr.Node
	tr    Transport
	peers map[int64]*peerState
	// order is the sorted peer-ID broadcast order: emission must be a
	// pure function of configuration, not of map iteration.
	order []int64

	start   time.Time
	dataSeq uint64
	// last is the newest protocol time the loop has used: arrival stamps of
	// different senders may interleave, the olsr clock must not run back.
	last time.Duration
	// timer fires at the earlier of the two emission deadlines. A triggered
	// emission may not come before its floor: a quarter interval after the
	// last emission of its kind, 0 before the first.
	nextHello, nextTC, helloFloor, tcFloor time.Duration
	timer                                  *time.Timer
	// scratch is the one buffer originated and control frames encode into.
	scratch []byte
	// dups is the flood duplicate set HandleTC leaves to its host.
	dups dupWindow
	// metrics is the authoritative traffic accounting: registry cells the
	// run loop increments and the /metrics scrape reads concurrently. The
	// status report's Stats is derived from it.
	metrics *daemonMetrics

	wake    chan struct{} // capacity 1: a token means "look again"
	pending atomic.Uint32 // wake* bits
	mu      sync.Mutex    // guards reqs and stopped
	reqs    []request
	stopped bool      // Run has returned: call refuses
	batch   []request // the loop's half of the request double buffer
}

// New builds a Daemon. The underlying olsr.Node prices links from the round
// trips the daemon measures (Config.Measured), or leaves the link table to
// the daemon, which feeds it the peer table's declared weights.
func New(cfg Config) (*Daemon, error) {
	if cfg.Transport == nil {
		return nil, errors.New("node: config needs a transport")
	}
	if cfg.Metric == nil {
		cfg.Metric = metric.Delay()
	}
	ocfg := olsr.DefaultConfig(cfg.Metric)
	if cfg.HelloInterval > 0 {
		ocfg.HelloInterval, ocfg.NeighborHoldTime = cfg.HelloInterval, 3*cfg.HelloInterval
	}
	if cfg.TCInterval > 0 {
		ocfg.TCInterval, ocfg.TopologyHoldTime = cfg.TCInterval, 3*cfg.TCInterval
	}
	cfg.HelloInterval = ocfg.HelloInterval
	cfg.TCInterval = ocfg.TCInterval
	if cfg.Selector != nil {
		ocfg.Selector = cfg.Selector
	}
	if cfg.TTL == 0 {
		cfg.TTL = 32
	}
	ocfg.LinkSensing = olsr.SenseHost
	if cfg.Measured {
		ocfg.LinkSensing = olsr.SenseRTT
	}
	n, err := olsr.NewNode(cfg.ID, ocfg)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:     cfg,
		node:    n,
		tr:      cfg.Transport,
		peers:   make(map[int64]*peerState, len(cfg.Peers)),
		start:   time.Now(),
		scratch: make([]byte, frameHeaderLen, 512),
		dups:    dupWindow{hold: ocfg.TopologyHoldTime, until: make(map[dupKey]time.Duration)},
		wake:    make(chan struct{}, 1),
	}
	for _, p := range cfg.Peers {
		if p.ID == cfg.ID {
			return nil, fmt.Errorf("node: peer table lists our own id %d", p.ID)
		}
		if _, dup := d.peers[p.ID]; dup {
			return nil, fmt.Errorf("node: duplicate peer id %d", p.ID)
		}
		w := p.Weight
		if w <= 0 {
			w = 1
		}
		d.peers[p.ID] = &peerState{id: p.ID, addr: p.Addr, weight: w}
		d.order = append(d.order, p.ID)
	}
	sort.Slice(d.order, func(i, j int) bool { return d.order[i] < d.order[j] })
	d.metrics = newDaemonMetrics(d.start, d.tr)
	return d, nil
}

// now reads the daemon's protocol clock: monotonic elapsed time since New,
// the wall-clock counterpart of the simulator's virtual timestamps.
func (d *Daemon) now() time.Duration { return d.advance(time.Since(d.start)) }

// advance folds one instant into the loop's monotone protocol time.
func (d *Daemon) advance(t time.Duration) time.Duration {
	d.last = max(d.last, t)
	return d.last
}

func (d *Daemon) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// poke records why the loop must look again, then leaves it a wake token —
// in that order, which is why no wake-up is lost (doc.go).
func (d *Daemon) poke(why uint32) {
	d.pending.Or(why)
	select {
	case d.wake <- struct{}{}:
	default: // a token is already waiting; its consumer will see the bit
	}
}

var errTransportClosed = errors.New("node: transport closed")

// Run drives the daemon until ctx is cancelled or the transport closes. It
// owns all protocol state; call it exactly once. The transport is closed on
// the way out.
func (d *Daemon) Run(ctx context.Context) error {
	defer d.serveRequests(true)
	defer d.tr.Close()
	stop := context.AfterFunc(ctx, func() { d.poke(wakeStop) })
	defer stop()
	// An immediate HELLO bootstraps the echo exchange and the changes it sets
	// off trigger the next emissions: cold start takes round trips, not periods.
	d.nextHello = d.now()
	d.nextTC = d.nextHello + d.cfg.TCInterval
	d.timer = time.AfterFunc(time.Hour, func() { d.poke(wakeTick) })
	defer d.timer.Stop()
	d.tick() // re-arms the timer for real
	inbound := d.tr.Inbound()
	for n := 1; ; n++ {
		// Frames already queued are read before soft state is judged
		// below; a flood yields to the flags once per queue's worth.
		if n%inboundBuffer != 0 {
			select {
			case in, ok := <-inbound:
				if !ok {
					return errTransportClosed
				}
				d.handleFrame(in)
				freeFrame(in.Data)
				continue
			default:
			}
		}
		switch why := d.pending.Swap(0); {
		case why&wakeStop != 0:
			return nil
		case why != 0:
			if why&wakeTick != 0 {
				d.tick()
			}
			if why&wakeReq != 0 {
				d.serveRequests(false)
			}
			continue // that took time: read the queue again
		}
		select {
		case in, ok := <-inbound:
			if !ok {
				return errTransportClosed
			}
			d.handleFrame(in)
			freeFrame(in.Data)
		case <-d.wake:
		}
	}
}

// tick emits whatever is due and re-arms the timer for the earlier deadline.
// Deadlines advance by their interval, so a late loop does not push the
// cadence back; intervals slept through entirely are skipped, not replayed.
func (d *Daemon) tick() {
	now := d.now()
	if now >= d.nextHello {
		// The HELLO tick doubles as the gauge refresh cadence.
		d.broadcast(olsr.MarshalHello(d.node.GenerateHello(now)))
		d.refreshGauges(now)
		d.helloFloor = now + d.cfg.HelloInterval/4
		d.nextHello += ((now-d.nextHello)/d.cfg.HelloInterval + 1) * d.cfg.HelloInterval
	}
	if now >= d.nextTC {
		if t := d.node.GenerateTC(now); t != nil { // silent without an advertised set
			d.broadcast(olsr.MarshalTC(t))
			d.tcFloor = now + d.cfg.TCInterval/4
		}
		d.nextTC += ((now-d.nextTC)/d.cfg.TCInterval + 1) * d.cfg.TCInterval
	}
	d.timer.Reset(min(d.nextHello, d.nextTC) - now)
}

// trigger pulls both emission deadlines forward to now, but not before their
// floors, after a change of the neighbourhood's shape (doc.go has the rule).
// Before Run arms the timer it moves only the deadlines.
func (d *Daemon) trigger(now time.Duration) {
	d.nextHello = min(d.nextHello, max(now, d.helloFloor))
	d.nextTC = min(d.nextTC, max(now, d.tcFloor))
	if d.timer != nil {
		d.timer.Reset(min(d.nextHello, d.nextTC) - now)
	}
}

// serveRequests answers every queued Send and Status under one clock read.
// With stop set it refuses them instead, and every later one.
func (d *Daemon) serveRequests(stop bool) {
	d.mu.Lock()
	d.stopped = stop
	d.reqs, d.batch = d.batch[:0], d.reqs
	d.mu.Unlock()
	now := d.now()
	for i, r := range d.batch {
		switch {
		case stop:
			r.res <- errStopped
		case r.status != nil:
			*r.status = d.buildStatus(now)
			r.res <- nil
		default:
			r.res <- d.originate(r.dst, r.body, now)
		}
		d.batch[i] = request{}
	}
}

// broadcast lays one control payload out in the scratch buffer and sends it
// to every configured peer, re-stamping the header for each. Every frame
// reads the clock itself: one reading per round would age the TxTime of the
// peers served last by the sends before them, a bias no RTT filter removes.
func (d *Daemon) broadcast(payload []byte) {
	if len(payload) > MaxPayload {
		d.metrics.sendErrors.Inc()
		return
	}
	d.scratch = append(d.scratch[:frameHeaderLen], payload...)
	for _, id := range d.order {
		d.sendTo(d.peers[id], KindControl, d.scratch, d.now())
	}
}

// sendTo stamps an encoded frame's header in place and transmits it to one
// peer. The RTT echo triplet is our clock now, the peer's newest stamp, and
// how long we have held it.
func (d *Daemon) sendTo(p *peerState, kind FrameKind, frame []byte, now time.Duration) {
	var echo, delay uint64
	if p.lastRxTx != 0 {
		echo, delay = p.lastRxTx, uint64(now)-p.lastRxAt
	}
	putFrameHeader(frame, kind, d.cfg.ID, uint64(now), echo, delay)
	if err := d.tr.Send(p.addr, frame); err != nil {
		d.metrics.sendErrors.Inc()
		d.logf("node %d: send to %d (%s): %v", d.cfg.ID, p.id, p.addr, err)
		return
	}
	d.metrics.framesOut.Inc()
	d.metrics.bytesOut.Add(uint64(len(frame)))
}

// handleFrame ingests one datagram: authenticate the sender against the
// peer table, harvest the RTT echo, then dispatch by kind. The transport's
// arrival stamp is the frame's one clock reading.
func (d *Daemon) handleFrame(in Inbound) {
	d.metrics.framesIn.Inc()
	d.metrics.bytesIn.Add(uint64(len(in.Data)))
	f, err := decodeFrame(in.Data)
	if err != nil {
		d.metrics.decodeErrors.Inc()
		return
	}
	p := d.peers[f.Sender]
	if p == nil {
		// Not in our peer table: out of radio range, or noise. Either
		// way it contributes no protocol state.
		d.metrics.unknownSender.Inc()
		return
	}
	// Timestamp-sensitive state uses the transport's arrival stamp, not
	// the processing instant: time the frame waited in the receive queue
	// is the host's, and must be charged neither to the round trip we
	// close here nor to the echo we will emit.
	at := in.At.Sub(d.start)
	if in.At.IsZero() || at < 0 {
		at = time.Since(d.start) // a transport that does not stamp
	}
	now := d.advance(at)
	if f.TxTime != 0 {
		p.lastRxTx = f.TxTime
		p.lastRxAt = uint64(at)
	}
	p.heard = at
	if f.EchoTime != 0 {
		// The peer echoed one of our stamps: close the round trip in our
		// own clock, net of the time the peer held it.
		rtt := time.Duration(int64(at) - int64(f.EchoTime) - int64(f.EchoDelay))
		d.node.ObserveRTT(p.id, rtt, now)
		if rtt >= 0 {
			d.metrics.rtt.Observe(rtt.Seconds())
		}
	}
	switch f.Kind {
	case KindControl:
		d.handleControl(p, f.Payload, now)
	case KindData:
		d.handleData(in.Data, now)
	}
}

// handleControl dispatches one olsr wire message from an authenticated
// peer.
func (d *Daemon) handleControl(p *peerState, payload []byte, now time.Duration) {
	t, err := olsr.PeekType(payload)
	if err != nil {
		d.metrics.decodeErrors.Inc()
		return
	}
	switch t {
	case olsr.MsgHello:
		h, err := olsr.UnmarshalHello(payload)
		if err != nil {
			d.metrics.decodeErrors.Inc()
			return
		}
		if h.Origin != p.id {
			// A HELLO whose origin disagrees with the frame sender is
			// spoofed or relayed; HELLOs are strictly one-hop.
			d.metrics.spoofRejects.Inc()
			return
		}
		d.metrics.hellosIn.Inc()
		if !d.cfg.Measured {
			// Declared weights: the HELLO proves the link alive.
			d.node.UpdateLink(p.id, p.weight, now)
		}
		if d.node.HandleHello(h, now) {
			d.trigger(now)
		}
	case olsr.MsgTC:
		// A duplicate is counted and dropped undecoded. A key is recorded only
		// once its copy decodes: a malformed copy cannot shadow a valid one.
		origin, seq, err := olsr.PeekTC(payload)
		if err == nil && d.dups.seen(origin, seq, now) {
			d.metrics.tcsIn.Inc()
			return
		}
		tc, err := olsr.UnmarshalTC(payload)
		if err != nil {
			d.metrics.decodeErrors.Inc()
			return
		}
		d.metrics.tcsIn.Inc()
		d.dups.until[dupKey{origin, seq}] = now + d.dups.hold
		if d.node.HandleTC(tc, p.id, now) {
			// RFC 3626 forwarding: the sender selected us as MPR —
			// re-flood the TC to our whole neighborhood, once.
			d.metrics.tcsForwarded.Inc()
			d.broadcast(payload)
		}
	default:
		// A type PeekType knows and this daemon does not carry (TC-DELTA:
		// frames have no TTL and GenerateTC never emits one). Dropped, but
		// counted: a peer speaking it is a misconfiguration worth seeing.
		d.metrics.unsupported.Inc()
	}
}

// dupWindow is the daemon's flood duplicate set (RFC 3626 §3.4): until
// when each (origin, seq) TC handed to the node counts as a duplicate.
// Expired keys are swept at most once per hold, so the set holds the
// sightings of the last two holds.
type dupWindow struct {
	hold, sweepAt time.Duration
	until         map[dupKey]time.Duration
}

type dupKey struct {
	origin int64
	seq    uint16
}

// seen reports whether (origin, seq) was handed over within the hold time;
// the host records a key it hands over. A node's own TC looping back is
// handed over once, like any other.
func (w *dupWindow) seen(origin int64, seq uint16, now time.Duration) bool {
	if now >= w.sweepAt {
		maps.DeleteFunc(w.until, func(_ dupKey, t time.Duration) bool { return t <= now })
		w.sweepAt = now + w.hold
	}
	return w.until[dupKey{origin, seq}] > now
}

// handleData delivers one received data frame or forwards it in place: the
// TTL byte is decremented and the header re-stamped in the received buffer,
// and those same bytes go to the next hop.
func (d *Daemon) handleData(frame []byte, now time.Duration) {
	pkt, err := decodeData(frame[frameHeaderLen:])
	if err != nil {
		d.metrics.decodeErrors.Inc()
		return
	}
	if pkt.Dst == d.cfg.ID {
		d.metrics.dataDelivered.Inc()
		if d.cfg.OnData != nil {
			d.cfg.OnData(pkt.Src, pkt.Seq, pkt.Body)
		}
		return
	}
	if pkt.TTL == 0 {
		d.metrics.dropTTL.Inc()
		d.logf("node %d: drop data %d->%d: ttl exhausted", d.cfg.ID, pkt.Src, pkt.Dst)
		return
	}
	next, hole, err := d.nextHop(pkt.Dst, now)
	if err != nil {
		hole.Inc()
		d.logf("node %d: drop data %d->%d: %v", d.cfg.ID, pkt.Src, pkt.Dst, err)
		return
	}
	frame[frameHeaderLen+dataTTLOffset]--
	d.sendTo(next, KindData, frame, now)
	d.metrics.dataForwarded.Inc()
}

// nextHop resolves dst through the routing table; on failure hole is the
// drop-reason cell a forwarder counts.
func (d *Daemon) nextHop(dst int64, now time.Duration) (next *peerState, hole obs.Counter, err error) {
	routes, err := d.node.Routes(now)
	if err != nil {
		return nil, d.metrics.dropNoRoute, err
	}
	r, ok := routes.Lookup(dst)
	if !ok {
		return nil, d.metrics.dropNoRoute, fmt.Errorf("no route to %d", dst)
	}
	if next = d.peers[r.NextHop]; next == nil {
		return nil, d.metrics.dropNotPeer, fmt.Errorf("next hop %d not a peer", r.NextHop)
	}
	return next, hole, nil
}

// originate injects a locally-sourced data packet, encoded behind a frame
// header in the scratch buffer.
func (d *Daemon) originate(dst int64, body []byte, now time.Duration) error {
	pkt := DataPacket{Dst: dst, Src: d.cfg.ID, Seq: d.dataSeq, TTL: d.cfg.TTL, Body: body}
	d.dataSeq++
	next, _, err := d.nextHop(dst, now)
	if err != nil {
		return err
	}
	frame, err := appendData(d.scratch[:frameHeaderLen], &pkt)
	if err != nil {
		return err
	}
	d.scratch = frame
	d.sendTo(next, KindData, frame, now)
	d.metrics.dataOriginated.Inc()
	return nil
}

var errStopped = errors.New("node: daemon stopped")

// replies recycles reply channels: every queued request is answered exactly
// once (Run's exit answers the stragglers), so a pooled channel is empty.
var replies = sync.Pool{New: func() any { return make(chan error, 1) }}

// call queues one request, pokes the run loop and waits for its answer.
func (d *Daemon) call(r request) error {
	r.res = replies.Get().(chan error)
	defer replies.Put(r.res)
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return errStopped
	}
	d.reqs = append(d.reqs, r)
	d.mu.Unlock()
	d.poke(wakeReq)
	return <-r.res
}

// Send originates one data packet toward dst, routed hop by hop through the
// daemons' tables. It blocks until the run loop has served it (body is not
// kept) and returns an error when no usable route exists. Valid only while
// Run is active.
func (d *Daemon) Send(dst int64, body []byte) error {
	return d.call(request{dst: dst, body: body})
}
