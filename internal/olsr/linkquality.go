package olsr

import (
	"time"

	"qolsr/internal/metric"
)

// Link-quality estimation: under Config.MeasuredQoS a node derives its link
// weights from what the radio actually delivers instead of reading them from
// the out-of-scope oracle. Every node tracks, per heard neighbor, a windowed
// delivery ratio of that neighbor's HELLOs — the periodic emission doubles
// as a probe stream, and sequence-number gaps reveal losses. HELLOs
// piggyback the sender's measured ratios (the LQ wire block), so both ends
// learn both directions and can form the bidirectional estimate: the
// ETX-family link metrics of the quality-routing literature (Javaid et al.)
// running on the QOLSR stack.

// DefaultLQWindow is the HELLO-history window the delivery ratio averages
// over when Config.LQWindow is unset: large enough to smooth draw noise,
// small enough to follow a link whose loss rate changes mid-run.
const DefaultLQWindow = 16

// minLQProduct floors the bidirectional delivery product so the ETX of a
// terrible-but-alive link stays finite.
const minLQProduct = 1.0 / 1024

// lqEstimator tracks one neighbor's HELLO delivery history in a boolean
// ring: a received HELLO contributes a hit, and a sequence gap of g
// contributes g-1 misses first. The ratio over the filled window is the
// forward delivery probability estimate of the link from that neighbor.
type lqEstimator struct {
	lastSeq uint16
	primed  bool
	window  []bool
	pos     int
	filled  int
	hits    int
	expires time.Duration
}

func newLQEstimator(window int) *lqEstimator {
	if window <= 0 {
		window = DefaultLQWindow
	}
	return &lqEstimator{window: make([]bool, window)}
}

// observe ingests one received HELLO sequence number. Wrap-around-safe: the
// gap is computed in signed wrap arithmetic, so a duplicate or reordered
// HELLO (sequence at or behind the last seen — possible when medium jitter
// approaches the emission interval) is ignored instead of being misread as
// a ~65535-wide loss burst. Forward gaps are capped at the window size (a
// larger gap floods the window with misses anyway).
func (e *lqEstimator) observe(seq uint16) {
	if !e.primed {
		e.primed = true
		e.lastSeq = seq
		e.push(true)
		return
	}
	gap := int16(seq - e.lastSeq)
	if gap <= 0 {
		return // duplicate or out-of-order delivery
	}
	missed := int(gap) - 1
	if missed > len(e.window) {
		missed = len(e.window)
	}
	for i := 0; i < missed; i++ {
		e.push(false)
	}
	e.push(true)
	e.lastSeq = seq
}

func (e *lqEstimator) push(hit bool) {
	if e.filled == len(e.window) {
		if e.window[e.pos] {
			e.hits--
		}
	} else {
		e.filled++
	}
	e.window[e.pos] = hit
	if hit {
		e.hits++
	}
	e.pos = (e.pos + 1) % len(e.window)
}

// ratio returns the windowed delivery ratio, 0 before any observation.
func (e *lqEstimator) ratio() float64 {
	if e.filled == 0 {
		return 0
	}
	return float64(e.hits) / float64(e.filled)
}

// measuredWeight maps the two directions' HELLO delivery ratios into the
// configured metric's value domain: concave metrics (bandwidth-family) get
// the delivery product — the fraction of offered throughput the link
// actually carries, larger better; additive metrics (delay-family) get
// ETX = 1/(fwd·rev) — the expected transmissions per delivered frame, a
// latency-proportional cost, smaller better. The second return is false
// while either direction is still unmeasured.
func measuredWeight(m metric.Metric, fwd, rev float64) (float64, bool) {
	p := fwd * rev
	if p <= 0 {
		return 0, false
	}
	if p > 1 {
		p = 1
	}
	if p < minLQProduct {
		p = minLQProduct
	}
	if m.Kind() == metric.Concave {
		return p, true
	}
	return 1 / p, true
}

// observeHello is the measured-mode link-sensing path: record the HELLO in
// the origin's delivery window, and when the origin reports hearing us too
// (its LQ block names us), refresh our link with the bidirectional estimate
// mapped into the metric's domain. UpdateLink bumps the neighborhood
// version only when the quantised ratio actually moved, so a stable link
// keeps every cached derivation valid between changes.
func (n *Node) observeHello(h *Hello, now time.Duration) {
	est := n.lq[h.Origin]
	if est == nil {
		if n.lq == nil {
			n.lq = make(map[int64]*lqEstimator)
		}
		est = newLQEstimator(n.cfg.LQWindow)
		n.lq[h.Origin] = est
	}
	est.observe(h.Seq)
	est.expires = now + n.cfg.NeighborHoldTime
	n.track(est.expires)
	for _, l := range h.LQs {
		if l.Neighbor == n.ID {
			if w, ok := measuredWeight(n.cfg.Metric, est.ratio(), l.Weight); ok {
				n.UpdateLink(h.Origin, w, now)
			}
			return
		}
	}
	// The origin does not (yet) hear us: the link is asymmetric and forms
	// no routing edge — OLSR's symmetric-link requirement, enforced here
	// by measurement instead of assumption.
}

// LinkQuality returns this node's measured delivery ratio of HELLOs from
// the given neighbor, and whether a measurement exists. Only meaningful
// under Config.MeasuredQoS.
func (n *Node) LinkQuality(neighbor int64, now time.Duration) (float64, bool) {
	n.expire(now)
	est, ok := n.lq[neighbor]
	if !ok || est.filled == 0 {
		return 0, false
	}
	return est.ratio(), true
}

// LinkWeight returns the node's current weight for its own link to the
// given neighbor (oracle-fed, or the measured estimate under MeasuredQoS).
func (n *Node) LinkWeight(neighbor int64, now time.Duration) (float64, bool) {
	n.expire(now)
	l := n.links.get(neighbor)
	if l == nil {
		return 0, false
	}
	return l.weight, true
}
