package sim

import (
	"fmt"
	"math"
	"strings"
	"time"

	"qolsr/internal/geom"
	"qolsr/internal/graph"
	"qolsr/internal/rng"
)

// The radio-medium layer: every transmission — control broadcasts and
// data-plane unicasts alike — is planned by a Medium, which decides who
// receives the frame and after how long. The protocol machinery above never
// schedules deliveries itself, so swapping the medium swaps the radio model
// of the whole stack: the ideal MAC the paper assumes, or a lossy queued
// radio whose link quality the protocol must measure.

// Hop is one planned frame reception: the receiver and the total latency
// (queueing + serialization + propagation + jitter) from the moment the
// sender handed the frame to the medium. Wait is the queueing component
// alone — how long the frame sat behind the sender's busy transmitter —
// which path tracing reports per hop; ideal media leave it zero.
type Hop struct {
	Dst   int32
	Delay time.Duration
	Wait  time.Duration
}

// MediumStats is a medium's cumulative frame accounting: plain fields
// bumped on the planning path (no atomics — media are single-goroutine)
// and read lazily by the observability registry.
type MediumStats struct {
	// FramesPlanned counts transmissions handed to the medium.
	FramesPlanned uint64
	// Receptions counts planned per-receiver deliveries.
	Receptions uint64
	// ReceptionsLost counts per-receiver losses (the keyed loss draw).
	ReceptionsLost uint64
	// FramesStalled counts transmissions that waited behind a busy
	// transmitter, and StallTime accumulates that serialization queue wait.
	FramesStalled uint64
	StallTime     time.Duration
}

// Medium is the radio model one Network transmits through. Implementations
// are single-goroutine state machines owned by their network (the event
// engine is single-threaded); their decisions must be pure functions of
// (medium state, arguments) so a simulation stays deterministic for any
// worker count of the surrounding harness.
type Medium interface {
	// Name returns the medium's registry name ("ideal", "lossy").
	Name() string
	// Attach binds the medium to the network it serves. NewNetwork calls
	// it exactly once, before any PlanFrame.
	Attach(nw *Network)
	// PlanFrame plans one frame of size bytes sent by src at virtual time
	// now toward the candidate receivers (the sender's currently-up
	// physical neighbors, in deterministic order). It returns the
	// receivers that actually get the frame with their per-receiver
	// latency. The returned slice is only valid until the next PlanFrame
	// call.
	PlanFrame(src int32, dsts []int32, size int, now time.Duration) []Hop
	// HopDelayBound returns a per-hop latency bound harnesses use to size
	// packet drain windows. For queued media it is a practical bound
	// (typical frame, idle queue), not a hard worst case.
	HopDelayBound() time.Duration
}

// DefaultPropDelay is the radio propagation+processing delay per hop.
const DefaultPropDelay = time.Millisecond

// MediumNames lists the built-in radio media in listing order.
func MediumNames() []string { return []string{"ideal", "lossy"} }

// IdealMedium is the paper's radio model: every frame reaches every
// candidate receiver after a fixed propagation delay — no loss, no queueing,
// no jitter ("our own C simulator that assumes an ideal MAC layer",
// Sec. IV-A). It makes no RNG draws, so a network over an explicit
// IdealMedium is bit-identical to one built with a nil medium.
type IdealMedium struct {
	prop  time.Duration
	hops  []Hop
	stats MediumStats
}

// NewIdealMedium returns the ideal MAC with the given propagation delay
// (DefaultPropDelay when non-positive). Every caller passes 0: the paper's
// model has one per-hop delay, and the probe drain windows and goldens are
// sized by it.
func NewIdealMedium(prop time.Duration) *IdealMedium {
	if prop <= 0 {
		prop = DefaultPropDelay
	}
	return &IdealMedium{prop: prop}
}

// Name implements Medium.
func (m *IdealMedium) Name() string { return "ideal" }

// Attach implements Medium.
func (m *IdealMedium) Attach(*Network) {}

// HopDelayBound implements Medium.
func (m *IdealMedium) HopDelayBound() time.Duration { return m.prop }

// Stats returns the cumulative frame accounting.
func (m *IdealMedium) Stats() MediumStats { return m.stats }

// PlanFrame implements Medium: every candidate receives the frame after the
// propagation delay.
func (m *IdealMedium) PlanFrame(src int32, dsts []int32, size int, now time.Duration) []Hop {
	m.hops = m.hops[:0]
	for _, dst := range dsts {
		m.hops = append(m.hops, Hop{Dst: dst, Delay: m.prop})
	}
	m.stats.FramesPlanned++
	m.stats.Receptions += uint64(len(m.hops))
	return m.hops
}

// LossyConfig parameterises the lossy medium.
type LossyConfig struct {
	// Loss is the base packet-error rate every link suffers, in [0, 1).
	Loss float64
	// DistanceLoss adds distance-dependent loss when the medium knows the
	// node geometry (SetGeometry): a link at the full communication radius
	// suffers this much extra error rate, scaled by (d/R)^2. Ignored
	// without geometry.
	DistanceLoss float64
	// Seed keys the loss and jitter draws. Every draw is a pure function
	// of (Seed, src, dst, per-sender frame sequence) — splitmix64-keyed,
	// so outcomes are platform-stable and independent of draw order.
	Seed int64
}

// The lossy medium's fixed radio: a unit-bandwidth link serializes at
// unitBytesPerSec (1 Mbit/s per bandwidth-weight unit; a link's rate is that
// times its "bandwidth"-channel weight, and links of graphs without that
// channel serialize at weight 1), every hop adds DefaultPropDelay, and each
// reception draws a uniform extra delay below lossyJitter.
const (
	unitBytesPerSec = 125000
	lossyJitter     = 200 * time.Microsecond
)

// maxPER caps per-link error rates so a configured-lossy link still delivers
// the occasional frame (a rate of exactly 1 would silently equal FailLink).
const maxPER = 0.99

// bandwidthChannel is the weight channel the serialization rate reads.
const bandwidthChannel = "bandwidth"

// draw kinds separating the loss and jitter streams of one transmission.
const (
	drawLoss uint64 = iota + 1
	drawJitter
)

// LossyMedium is a lossy, queued radio: per-link packet-error rates (base
// plus optional distance-dependent and per-link components), a per-node
// transmit queue serializing at 1 Mbit/s per unit of the link's
// bandwidth-channel weight, 1 ms propagation per hop, and uniform jitter
// below 200 µs. All randomness is keyed per (src, dst, frame-sequence) from
// the configured seed, so a simulation is reproducible bit for bit at any
// harness worker count.
type LossyMedium struct {
	cfg LossyConfig
	// lossKey and jitterKey are rng.Mix(base, drawLoss) and rng.Mix(base,
	// drawJitter), base being the seed-derived key every draw starts from:
	// the constant head of the draw keys, hashed once.
	lossKey, jitterKey uint64
	nw                 *Network

	busy []time.Duration // per-sender transmitter busy-until
	seq  []uint64        // per-sender frame counters

	linkLoss map[[2]int32]float64 // per-link PER overrides

	pts    []geom.Point // optional geometry for DistanceLoss
	radius float64

	// Per-edge caches of the effective PER and the serialization rate
	// (bytes/s) — the two per-receiver figures PlanFrame needs that are
	// pure functions of (config, geometry, graph). lossGen is bumped by
	// every knob that feeds them; the caches re-derive when it or the
	// graph pointer moves. Values are identical to the uncached
	// computation, so the keyed draws (and with them every golden) are
	// untouched.
	lossGen  uint64
	cacheGen uint64
	cacheG   *graph.Graph
	perEdge  []float64
	serEdge  []float64

	hops  []Hop
	stats MediumStats
}

// NewLossyMedium returns a lossy medium with the given configuration.
func NewLossyMedium(cfg LossyConfig) *LossyMedium {
	base := lossyDrawBase(cfg.Seed)
	return &LossyMedium{
		cfg:       cfg,
		lossKey:   rng.Mix(base, drawLoss),
		jitterKey: rng.Mix(base, drawJitter),
	}
}

// lossyDrawBase derives the draw key base from the configured seed,
// domain-separated from the other streams that seed feeds.
func lossyDrawBase(seed int64) uint64 { return rng.Mix(uint64(seed), 0x10551) }

// Name implements Medium.
func (m *LossyMedium) Name() string { return "lossy" }

// Attach implements Medium.
func (m *LossyMedium) Attach(nw *Network) {
	m.nw = nw
	n := nw.Phys.N()
	m.busy = make([]time.Duration, n)
	m.seq = make([]uint64, n)
}

// HopDelayBound implements Medium: propagation, full jitter and the
// serialization of a data frame at the unit rate (the frames the drain
// windows sized by this bound actually carry) — 1 ms + 200 µs + 4.096 ms =
// 5.296 ms. Queue wait under bursts can exceed it; drain windows sized by it
// capture everything but pathological storms.
func (m *LossyMedium) HopDelayBound() time.Duration {
	ser := time.Duration(float64(DataPacketBytes) / unitBytesPerSec * float64(time.Second))
	return DefaultPropDelay + lossyJitter + ser
}

// SetBaseLoss replaces the base packet-error rate (the SetLoss scenario
// action). Values are clamped to [0, maxPER].
func (m *LossyMedium) SetBaseLoss(p float64) {
	m.cfg.Loss = clampPER(p)
	m.lossGen++
}

// SetLinkLoss overrides the packet-error rate of the physical link {a, b}
// in both directions, replacing the base rate for that link (the
// DegradeLink scenario action). A negative rate clears the override.
func (m *LossyMedium) SetLinkLoss(a, b int32, p float64) {
	m.lossGen++
	if p < 0 {
		delete(m.linkLoss, linkKey(a, b))
		return
	}
	if m.linkLoss == nil {
		m.linkLoss = make(map[[2]int32]float64)
	}
	m.linkLoss[linkKey(a, b)] = clampPER(p)
}

// SetGeometry gives the medium the node positions and communication radius
// the DistanceLoss component scales with. Positions are captured by
// reference; static harnesses pass their deployment points once. (Under
// mobility the captured positions go stale — mobile harnesses either skip
// DistanceLoss or refresh the geometry on topology rebuilds.)
func (m *LossyMedium) SetGeometry(pts []geom.Point, radius float64) {
	m.pts = pts
	m.radius = radius
	m.lossGen++
}

// LinkPER returns the effective packet-error rate of the link {a, b}: the
// per-link override when set, else the base rate, plus the distance
// component when geometry is known.
func (m *LossyMedium) LinkPER(a, b int32) float64 {
	per := m.cfg.Loss
	if len(m.linkLoss) != 0 {
		if p, ok := m.linkLoss[linkKey(a, b)]; ok {
			per = p
		}
	}
	if m.cfg.DistanceLoss > 0 && m.radius > 0 && int(a) < len(m.pts) && int(b) < len(m.pts) {
		d := math.Hypot(m.pts[a].X-m.pts[b].X, m.pts[a].Y-m.pts[b].Y)
		frac := d / m.radius
		per += m.cfg.DistanceLoss * frac * frac
	}
	return clampPER(per)
}

// PlanFrame implements Medium. The sender's transmitter is occupied for the
// frame's longest serialization whether or not any receiver keeps it (the
// radio transmits regardless); each surviving receiver sees queue wait +
// its link's serialization + propagation + its jitter draw.
func (m *LossyMedium) PlanFrame(src int32, dsts []int32, size int, now time.Duration) []Hop {
	m.hops = m.hops[:0]
	if len(dsts) == 0 {
		return m.hops
	}
	m.refreshEdgeCaches()
	seq := m.seq[src]
	m.seq[src]++

	start := max(now, m.busy[src])
	queue := start - now
	m.stats.FramesPlanned++
	if queue > 0 {
		m.stats.FramesStalled++
		m.stats.StallTime += queue
	}

	// Every draw is rng.Mix(base, kind, src, dst, seq). Mix folds its parts
	// left to right, so the (base, kind, src) rounds are the same for every
	// receiver of this frame and run once; drawFor finishes the key.
	lossKey := rng.Splitmix64(m.lossKey ^ uint64(uint32(src)))
	jitterKey := rng.Splitmix64(m.jitterKey ^ uint64(uint32(src)))

	// A broadcast's candidates are the sender's up neighbours in arc order —
	// a subsequence of its arc list — so one forward cursor finds every
	// receiver's edge; a list in any other order (a unicast, a foreign
	// caller) falls back to the scan.
	arcs := m.nw.Phys.Arcs(src)
	cursor := 0
	var maxSer time.Duration
	for _, dst := range dsts {
		e, ok := 0, false
		for i := cursor; i < len(arcs); i++ {
			if arcs[i].To == dst {
				e, ok, cursor = int(arcs[i].Edge), true, i+1
				break
			}
		}
		if !ok {
			e, ok = m.nw.Phys.EdgeBetween(src, dst)
		}
		var per, rate float64
		if ok {
			per = m.perEdge[e]
			rate = m.serEdge[e]
		} else {
			per = m.LinkPER(src, dst)
			rate = unitBytesPerSec
		}
		// Same expression as the uncached serialization — the float op
		// sequence must not change, delays are golden-pinned.
		ser := time.Duration(float64(size) / rate * float64(time.Second))
		maxSer = max(maxSer, ser)
		if per > 0 {
			if rng.Unit(drawFor(lossKey, dst, seq)) < per {
				m.stats.ReceptionsLost++
				continue // frame lost on this link
			}
		}
		delay := queue + ser + DefaultPropDelay + time.Duration(drawFor(jitterKey, dst, seq)%uint64(lossyJitter))
		m.hops = append(m.hops, Hop{Dst: dst, Delay: delay, Wait: queue})
	}
	m.busy[src] = start + maxSer
	m.stats.Receptions += uint64(len(m.hops))
	return m.hops
}

// drawFor finishes a keyed draw from its per-frame prefix: the last two
// rounds of rng.Mix(base, kind, src, dst, seq).
func drawFor(prefix uint64, dst int32, seq uint64) uint64 {
	return rng.Splitmix64(rng.Splitmix64(prefix^uint64(uint32(dst))) ^ seq)
}

// Stats returns the cumulative frame accounting.
func (m *LossyMedium) Stats() MediumStats { return m.stats }

// refreshEdgeCaches re-derives the per-edge PER and serialization-rate
// caches when any of their inputs moved.
func (m *LossyMedium) refreshEdgeCaches() {
	if m.cacheG == m.nw.Phys && m.cacheGen == m.lossGen {
		return
	}
	g := m.nw.Phys
	m.cacheG = g
	m.cacheGen = m.lossGen
	n := g.M()
	if cap(m.perEdge) < n {
		m.perEdge = make([]float64, n)
		m.serEdge = make([]float64, n)
	}
	m.perEdge = m.perEdge[:n]
	m.serEdge = m.serEdge[:n]
	w, _ := g.Weights(bandwidthChannel) // nil when the graph has no such channel
	for e := 0; e < n; e++ {
		a, b := g.EdgeEndpoints(e)
		m.perEdge[e] = m.LinkPER(a, b)
		weight := 1.0
		if w != nil && w[e] > 0 {
			weight = w[e]
		}
		m.serEdge[e] = unitBytesPerSec * weight
	}
}

func clampPER(p float64) float64 {
	switch {
	case p < 0 || math.IsNaN(p):
		return 0
	case p > maxPER:
		return maxPER
	default:
		return p
	}
}

// MediumByName builds a medium from its registry name; "lossy" takes its
// loss rates and draw seed from cfg, which the ideal medium ignores.
func MediumByName(name string, cfg LossyConfig) (Medium, error) {
	switch name {
	case "", "ideal":
		return NewIdealMedium(0), nil
	case "lossy":
		return NewLossyMedium(cfg), nil
	default:
		return nil, fmt.Errorf("sim: unknown medium %q (have %s)", name, strings.Join(MediumNames(), ", "))
	}
}

// Compile-time interface compliance checks.
var (
	_ Medium = (*IdealMedium)(nil)
	_ Medium = (*LossyMedium)(nil)
)
