package sim

import (
	"time"

	"qolsr/internal/obs"
	"qolsr/internal/olsr"
)

// DataStats accounts data-plane traffic injected with SendDataTraced.
type DataStats struct {
	Sent      uint64
	Delivered uint64
	// NoRoute counts packets dropped because some hop had no routing
	// entry for the destination.
	NoRoute uint64
	// Lost counts packets the medium dropped in flight (lossy radio); the
	// ideal medium never loses frames.
	Lost uint64
	// Expired counts packets dropped by TTL (forwarding loop or a path
	// longer than the TTL).
	Expired uint64
	// HopsTotal sums hop counts of delivered packets.
	HopsTotal uint64
	// LatencyTotal sums virtual delivery latencies.
	LatencyTotal time.Duration
}

// DefaultDataTTL bounds data-packet forwarding.
const DefaultDataTTL = 64

// DataPacketBytes is the nominal data-plane frame size the medium
// serializes and draws loss for.
const DataPacketBytes = 512

// DataSink receives packet completions: one interface dispatch per packet,
// no closure. The cookie is whatever the sender passed to SendDataTraced —
// the traffic engine encodes the flow identity and packet size in it, the
// scenario sampler the probe's flow index.
type DataSink interface {
	PacketDone(cookie uint64, delivered bool, hops int, latency time.Duration)
}

// dataPacket is one in-flight data packet: a pooled event that re-fires at
// each hop arrival.
type dataPacket struct {
	nw     *Network
	at     int32
	dst    int32
	ttl    int32
	size   int32
	start  time.Duration
	sink   DataSink
	cookie uint64
	// pt is the packet's path trace when it was sampled (nil for the
	// overwhelming majority). Pooled packets must clear it on reuse.
	pt *obs.PacketTrace
}

// Fire implements des.Event: the packet arrived at its next hop.
func (p *dataPacket) Fire(time.Duration) { p.nw.stepData(p) }

// SendDataTraced injects one data packet of size bytes at src addressed to
// dst (graph indices) at the current virtual time; it is the data plane's
// one entry. Each hop consults its *own* current routing table when the
// packet arrives — exactly how an OLSR data plane behaves, including
// transient loops while tables disagree (cut off by TTL). The packet
// completes at delivery or drop time through sink.PacketDone(cookie, ...),
// when sink is non-nil. The size feeds the medium's per-hop planning, so on
// a queued radio larger packets occupy the sender's transmitter for longer
// and sustained flows contend for it. pt is an optional path trace: the
// traffic engine starts one for sampled packets and the data plane records
// every hop and the final outcome on it. A nil trace is the common case and
// adds one pointer compare.
func (nw *Network) SendDataTraced(src, dst int32, size int, sink DataSink, cookie uint64, pt *obs.PacketTrace) {
	p := nw.newPacket(src, dst, size)
	p.sink = sink
	p.cookie = cookie
	if pt != nil {
		p.pt = pt
		pt.Hop(src, nw.Engine.Now(), 0)
	}
	nw.stepData(p)
}

func (nw *Network) newPacket(src, dst int32, size int) *dataPacket {
	nw.Data.Sent++
	p := take(&nw.pktPool)
	*p = dataPacket{nw: nw, at: src, dst: dst, ttl: DefaultDataTTL, size: int32(size), start: nw.Engine.Now()}
	return p
}

// finishData completes a packet (delivery or drop) and recycles it.
func (nw *Network) finishData(p *dataPacket, delivered bool, hops int, latency time.Duration) {
	sink, cookie := p.sink, p.cookie
	p.sink, p.pt = nil, nil
	nw.pktPool = append(nw.pktPool, p)
	if sink != nil {
		sink.PacketDone(cookie, delivered, hops, latency)
	}
}

// dropData completes a packet that died at this hop: count it under its
// outcome, close its path trace, recycle it.
func (nw *Network) dropData(p *dataPacket, count *uint64, outcome string) {
	*count++
	if p.pt != nil {
		p.pt.Finish(outcome, nw.Engine.Now())
	}
	nw.finishData(p, false, 0, 0)
}

// stepData advances a packet one hop: deliver, drop, or forward to the next
// hop's routing decision.
func (nw *Network) stepData(p *dataPacket) {
	if p.at == p.dst {
		nw.Data.Delivered++
		hops := int(DefaultDataTTL - p.ttl)
		latency := nw.Engine.Now() - p.start
		nw.Data.HopsTotal += uint64(hops)
		nw.Data.LatencyTotal += latency
		if p.pt != nil {
			p.pt.Finish("delivered", nw.Engine.Now())
		}
		nw.finishData(p, true, hops, latency)
		return
	}
	if p.ttl <= 0 {
		nw.dropData(p, &nw.Data.Expired, "ttl-expired")
		return
	}
	routes, err := nw.Nodes[p.at].Routes(nw.Engine.Now())
	if err != nil {
		nw.dropData(p, &nw.Data.NoRoute, "no-route")
		return
	}
	// Forwarding decisions are pure functions of (table snapshot, physical
	// link state), so they are cached per (destination, node) and a
	// sustained flow pays the lookup chain once per table rebuild, not once
	// per packet.
	row := nw.fwd[p.dst]
	if row == nil {
		row = make([]fwdEntry, len(nw.Nodes))
		nw.fwd[p.dst] = row
	}
	fe := &row[p.at]
	if fe.serial != routes.Serial() || fe.gen != nw.linkGen {
		fe.serial = routes.Serial()
		fe.gen = nw.linkGen
		fe.next, _, fe.ok = nw.NextHop(p.at, p.dst, routes)
	}
	if !fe.ok {
		nw.dropData(p, &nw.Data.NoRoute, "no-route")
		return
	}
	next := fe.next
	// The medium plans the unicast like any other frame: a lossy radio may
	// drop it in flight or delay it behind the sender's transmit queue.
	// The ideal medium's plan is a constant (deliver after its propagation
	// delay), so it is inlined, counted as IdealMedium.PlanFrame counts it.
	if m := nw.ideal; m != nil {
		m.stats.FramesPlanned++
		m.stats.Receptions++
		if p.pt != nil {
			p.pt.Hop(next, nw.Engine.Now()+m.prop, 0)
		}
		p.at = next
		p.ttl--
		nw.Engine.AfterFixed(m.prop, p)
		return
	}
	nw.unicast[0] = next
	plan := nw.medium.PlanFrame(p.at, nw.unicast[:], int(p.size), nw.Engine.Now())
	if len(plan) == 0 {
		nw.dropData(p, &nw.Data.Lost, "medium-loss")
		return
	}
	if p.pt != nil {
		p.pt.Hop(next, nw.Engine.Now()+plan[0].Delay, plan[0].Wait)
	}
	p.at = next
	p.ttl--
	nw.Engine.After(plan[0].Delay, p)
}

// NextHop is the data plane's per-hop rule: the next hop for traffic at
// node `at` addressed to `dst` under the given table snapshot, and the
// physical edge it crosses — table lookup, next-hop index resolution, and
// the physical-link check. False means the packet has no usable route at
// this hop. Admission control walks paths with it too.
func (nw *Network) NextHop(at, dst int32, routes *olsr.Routes) (next int32, edge int, ok bool) {
	route, ok := routes.Lookup(int64(nw.Phys.ID(dst)))
	if !ok {
		return 0, 0, false
	}
	next, ok = nw.indexOf[route.NextHop]
	if !ok {
		// A next hop outside the network's index (stale state naming a
		// node that never existed here) is a routing failure, not an
		// accidental alias of index 0.
		return 0, 0, false
	}
	// The unicast hop uses the physical link; if it is gone (united with
	// mobility/churn) the packet is lost at this hop unless the next table
	// refresh learns better.
	if edge, ok = nw.Phys.EdgeBetween(at, next); !ok || !nw.LinkUp(at, next) {
		return 0, 0, false
	}
	return next, edge, true
}
