package olsr

import (
	"math"
	"slices"
	"time"

	"qolsr/internal/metric"
)

// Link sensing: where a node's link weights come from. The oracle feeds them
// from the out-of-scope metric layer (paper Sec. II); a measured mode runs
// one estimator per heard neighbor and reports this end's half of each link
// in the HELLO LQ block, so both ends combine the same two halves and weigh
// the link alike — otherwise two neighbors can each route through the other.
// The halves are windowed HELLO delivery ratios (SenseDelivery: the
// ETX-family metrics of Javaid et al.) or windowed-minimum round trips on
// one quantisation ladder (SenseRTT, priced at the larger rung).

// LinkSensing selects what writes a node's link table (Config.LinkSensing).
type LinkSensing uint8

const (
	// SenseOracle adopts the weight a neighbor's HELLO advertises for its
	// link to this node; the simulator's oracle calls UpdateLink.
	SenseOracle LinkSensing = iota
	// SenseHost leaves the link table to the host's UpdateLink calls (the
	// daemon's declared peer weights).
	SenseHost
	// SenseDelivery derives weights from windowed HELLO delivery ratios:
	// ETX for additive metrics, the delivery product for concave ones.
	SenseDelivery
	// SenseRTT derives delay weights, in milliseconds, from the round trips
	// the host reports through ObserveRTT.
	SenseRTT
)

// lqWindow is the estimator window, in HELLO intervals: 16 smooth draw noise
// yet follow a link whose quality changes mid-run.
const lqWindow = 16

// minLQProduct floors the bidirectional delivery product so the ETX of a
// terrible-but-alive link stays finite.
const minLQProduct = 1.0 / 1024

// maxSaneRTT discards round trips a mesh link cannot plausibly produce —
// defensive against a peer echoing garbage stamps.
const maxSaneRTT = 10 * time.Second

// lqEstimator is one neighbor's link estimator. Its ring holds the last
// lqWindow observations of the neighbor's probe kind, one per HELLO: under
// SenseDelivery the HELLOs received (1 a hit, 0 a miss), under SenseRTT the
// smallest round trip, in nanoseconds, of each interval between this node's
// HELLO emissions.
type lqEstimator struct {
	ring    []float64
	pos     int
	filled  int
	expires time.Duration

	// HELLO delivery: the newest sequence number seen and the hits in the
	// ring. A sequence gap of g contributes g-1 misses before the hit. Under
	// SenseRTT lastSeq is the HELLO the peer's rung was last taken from.
	lastSeq uint16
	primed  bool
	hits    float64

	// Round trips: the RFC 6298-style smoothed mean (gain 1/8), the least
	// sample since the last emission (valid while fresh), and the rungs this
	// end and the neighbor advertise for the link, 0 until known.
	srtt, low float64
	fresh     bool
	adv, peer float64
}

func newLQEstimator(window int) lqEstimator {
	return lqEstimator{ring: make([]float64, window)}
}

// push records one observation and returns the one it evicts, 0 while the
// ring is filling.
func (e *lqEstimator) push(v float64) (evicted float64) {
	if e.filled == len(e.ring) {
		evicted = e.ring[e.pos]
	} else {
		e.filled++
	}
	e.ring[e.pos] = v
	e.pos = (e.pos + 1) % len(e.ring)
	return evicted
}

// observe ingests one received HELLO sequence number. Wrap-around-safe: the
// gap is computed in signed wrap arithmetic, so a duplicate or reordered
// HELLO (sequence at or behind the last seen — possible when medium jitter
// approaches the emission interval) is ignored instead of being misread as
// a ~65535-wide loss burst. Forward gaps are capped at the window size (a
// larger gap floods the window with misses anyway).
func (e *lqEstimator) observe(seq uint16) {
	if e.primed {
		gap := int16(seq - e.lastSeq)
		if gap <= 0 {
			return // duplicate or out-of-order delivery
		}
		for range min(int(gap)-1, len(e.ring)) {
			e.hits -= e.push(0)
		}
	}
	e.primed = true
	e.lastSeq = seq
	e.hits += 1 - e.push(1)
}

// ratio returns the windowed delivery ratio, 0 before any observation.
func (e *lqEstimator) ratio() float64 {
	if e.filled == 0 {
		return 0
	}
	return e.hits / float64(e.filled)
}

// sample ingests one round trip. Two filters run side by side: the smoothed
// mean reported as the link's RTT, and the windowed minimum the weight
// derives from — host scheduling and queueing only ever add latency, so the
// minimum over a window of HELLO intervals isolates the propagation floor
// from load noise, and a busy CPU cannot masquerade as a degraded link.
func (e *lqEstimator) sample(rtt time.Duration) {
	v := float64(rtt)
	if !e.fresh && e.filled == 0 {
		e.srtt = v
	} else {
		e.srtt += (v - e.srtt) / 8
	}
	if !e.fresh || v < e.low {
		e.low, e.fresh = v, true
	}
}

// minRTT closes the interval since the last emission and returns the
// windowed-minimum round trip in milliseconds, false before any sample.
func (e *lqEstimator) minRTT() (float64, bool) {
	if e.fresh {
		e.push(e.low)
		e.fresh = false
	}
	if e.filled == 0 {
		return 0, false
	}
	return slices.Min(e.ring[:e.filled]) / float64(time.Millisecond), true
}

// Ladder geometry: rungs rttFloor·2^(k/rungsPerOctave), k ≥ 0, so adjacent
// rungs are 2^(1/4) ≈ 1.19 apart — one bucket of skew between two ends
// costs under 25 %, not the 2× one 1/32 ms quantum cost at loopback delays.
const (
	rttFloor       = 1.0 / 32 // ms; a live link never weighs less
	rungsPerOctave = 4
)

// ladder is the one link-weight quantiser: it maps a delay in milliseconds
// onto the rung of its bucket, [rung k, rung k+1). cur is the rung the link
// stands at, 0 before the first; the delay moves it only when its bucket is
// more than one whole bucket away, so noise straddling a rung boundary moves
// no version.
func ladder(ms, cur float64) float64 {
	k := max(math.Floor(rungsPerOctave*math.Log2(ms/rttFloor)), 0)
	if cur > 0 && math.Abs(k-math.Round(rungsPerOctave*math.Log2(cur/rttFloor))) <= 1 {
		return cur
	}
	return rttFloor * math.Exp2(k/rungsPerOctave)
}

// measuredWeight maps the two directions' HELLO delivery ratios into the
// configured metric's value domain: concave metrics (bandwidth-family) get
// the delivery product — the fraction of offered throughput the link
// actually carries, larger better; additive metrics (delay-family) get
// ETX = 1/(fwd·rev) — the expected transmissions per delivered frame, a
// latency-proportional cost, smaller better. The second return is false
// while either direction is still unmeasured.
func measuredWeight(m metric.Metric, fwd, rev float64) (float64, bool) {
	p := min(fwd*rev, 1)
	if p <= 0 {
		return 0, false
	}
	if p = max(p, minLQProduct); m.Kind() == metric.Concave {
		return p, true
	}
	return 1 / p, true
}

// estimator returns the neighbor's estimator, creating it, and extends its
// life by the neighbor hold time.
func (n *Node) estimator(neighbor int64, now time.Duration) *lqEstimator {
	e := n.lq.get(neighbor)
	if e == nil {
		e = n.lq.put(neighbor, newLQEstimator(lqWindow))
	}
	e.expires = now + n.cfg.NeighborHoldTime
	n.track(e.expires)
	return e
}

// senseHello is the measured modes' HELLO path (under SenseDelivery the HELLO
// is itself the probe). When the origin's LQ block names us, the link is
// refreshed with both halves combined: ETX or the delivery product of the
// two ratios, or the larger RTT rung. A block that does not name us forms no
// routing edge: OLSR's symmetric-link requirement, enforced by measurement
// instead of assumption. UpdateLink bumps the neighborhood version only
// when the weight actually moved.
func (n *Node) senseHello(h *Hello, now time.Duration) {
	e := n.estimator(h.Origin, now)
	delivery := n.cfg.LinkSensing == SenseDelivery
	if delivery {
		e.observe(h.Seq)
	}
	for _, l := range h.LQs {
		if l.Neighbor != n.ID {
			continue
		}
		var w float64 // 0 while a half is unmeasured
		if delivery {
			w, _ = measuredWeight(n.cfg.Metric, e.ratio(), l.Weight)
		} else {
			// The peer's rung comes only from a HELLO newer than the last
			// one it was taken from: a late older HELLO would set it back.
			if !e.primed || int16(h.Seq-e.lastSeq) > 0 {
				e.peer, e.lastSeq, e.primed = l.Weight, h.Seq, true
			}
			w = max(e.adv, e.peer)
		}
		if w > 0 {
			n.UpdateLink(h.Origin, w, now)
		}
		return
	}
}

// priceRTT runs at HELLO emission under SenseRTT: it moves every measured
// link's advertised rung to where the windowed minimum now stands (the
// ladder's hysteresis holding it through noise) and reprices the links
// those rungs weigh. Both ends hold the same two rungs bit for bit once a
// HELLO has crossed each way, so they price the link the same.
func (n *Node) priceRTT() {
	for i, id := range n.lq.keys {
		e := &n.lq.vals[i]
		ms, ok := e.minRTT()
		if !ok {
			continue
		}
		e.adv = ladder(ms, e.adv)
		if l := n.links.get(id); l != nil {
			n.reweigh(id, l, max(e.adv, e.peer))
		}
	}
}

// lqBlock returns the HELLO LQ block: this end's half of every measured link
// in ascending neighbor order (the wire form must be a pure function of
// protocol state) — the raw delivery ratio, or the advertised RTT rung. It
// is nil outside the measured modes, so those HELLOs carry no block.
func (n *Node) lqBlock() []LinkInfo {
	var lqs []LinkInfo
	for i, id := range n.lq.keys {
		var v float64
		switch n.cfg.LinkSensing {
		case SenseDelivery:
			v = n.lq.vals[i].ratio()
		case SenseRTT:
			v = n.lq.vals[i].adv
		}
		if v > 0 {
			lqs = append(lqs, LinkInfo{Neighbor: id, Weight: v})
		}
	}
	return lqs
}

// ObserveRTT records one round trip to the neighbor, measured by the host
// (the daemon's frame echoes). Under SenseRTT the samples price the link at
// the next HELLO emission; LinkRTT reports them in every mode.
func (n *Node) ObserveRTT(neighbor int64, rtt, now time.Duration) {
	if rtt < 0 || rtt > maxSaneRTT {
		return
	}
	n.expire(now)
	n.estimator(neighbor, now).sample(rtt)
}

// LinkRTT returns the smoothed round trip to the neighbor from the samples
// fed to ObserveRTT, and whether one exists.
func (n *Node) LinkRTT(neighbor int64, now time.Duration) (time.Duration, bool) {
	n.expire(now)
	if e := n.lq.get(neighbor); e != nil && (e.filled > 0 || e.fresh) {
		return time.Duration(e.srtt), true
	}
	return 0, false
}

// LinkQuality returns this node's measured delivery ratio of HELLOs from
// the given neighbor, and whether a measurement exists. Only meaningful
// under SenseDelivery.
func (n *Node) LinkQuality(neighbor int64, now time.Duration) (float64, bool) {
	n.expire(now)
	if e := n.lq.get(neighbor); e != nil && e.filled > 0 {
		return e.ratio(), true
	}
	return 0, false
}

// LinkWeight returns the node's current weight for its own link to the
// given neighbor (oracle-fed, host-fed or measured).
func (n *Node) LinkWeight(neighbor int64, now time.Duration) (float64, bool) {
	n.expire(now)
	l := n.links.get(neighbor)
	if l == nil {
		return 0, false
	}
	return l.weight, true
}
