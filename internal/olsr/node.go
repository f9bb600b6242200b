package olsr

import (
	"fmt"
	"math"
	"slices"
	"time"

	"qolsr/internal/core"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/mpr"
)

// Config parameterises a protocol node. The zero value is not usable; use
// DefaultConfig as a base.
type Config struct {
	// HelloInterval and TCInterval are emission periods (RFC 3626
	// defaults: 2s and 5s).
	HelloInterval time.Duration
	TCInterval    time.Duration
	// NeighborHoldTime and TopologyHoldTime are state validity windows
	// (RFC 3626: 3x the emission interval).
	NeighborHoldTime time.Duration
	TopologyHoldTime time.Duration
	// Metric is the QoS metric driving ANS selection and routing.
	Metric metric.Metric
	// Selector computes the advertised neighbor set (default core.FNBP).
	Selector core.Selector
	// MPRHeuristic computes the flooding relay set (default RFC greedy).
	MPRHeuristic mpr.Heuristic
	// LinkSensing selects what writes the node's link table: the oracle
	// (the zero value), the host alone, or one of the two measured modes
	// whose HELLOs carry the LQ block so both link ends converge on the
	// same weight (see linkquality.go).
	LinkSensing LinkSensing
	// Deprecated: ExternalDupSuppression is read by nothing. Flood
	// duplicate suppression belongs to the host (see HandleTC); the field
	// stays only because the benchmark harness (cmd/qolsr-bench, frozen)
	// sets it, and goes when it stops doing so (ROADMAP 14(b)).
	ExternalDupSuppression bool
	// DeltaTC enables delta-encoded topology control (GenerateTCUpdate):
	// between periodic full TCs the node floods only the changes against
	// what it last flooded — in the converged steady state an empty
	// header-sized keepalive. Receivers apply deltas only when synchronised
	// on the origin's chain and resynchronise from the next full TC after
	// any gap, so the full-TC cadence (tcFullPeriod) bounds the staleness a
	// lost delta can cause.
	DeltaTC bool
	// FisheyeTTLs is the fish-eye scoping schedule (GenerateTCUpdate):
	// emission k floods with TTL FisheyeTTLs[k mod len], where 0 means
	// unlimited. Near neighbors then see every topology update while
	// distant ones see only the unlimited emissions — frequent updates
	// near, rare far — so per-TC flooding cost stops scaling with the
	// whole field. The unlimited period times TCInterval must stay under
	// TopologyHoldTime or distant state thrashes between refresh and
	// expiry.
	FisheyeTTLs []int
	// DenseIDs is a sizing hint for the topology store's dense window:
	// origins in [0, DenseIDs) map to their store slot by identity instead
	// of through the store's overflow map (see topostore.go). It selects no
	// behaviour — identifiers outside the window are stored all the same —
	// and a field's window is never smaller than its member count, so the
	// simulator's index-valued identifiers are dense without setting it.
	DenseIDs int
	// FloodRelay selects a second relay set computed alongside the
	// MPRHeuristic one, announced to neighbors as this node's relay choice
	// and therefore gating TC forwarding (zero: the MPRHeuristic set
	// serves both roles, the classic single-set behaviour). The paper's
	// QoS-driven selection deliberately over-selects for QoS coverage;
	// mpr.MinCover here keeps routing advertising the QoS set while floods
	// traverse a coverage-minimal set.
	FloodRelay mpr.Heuristic
}

// tcFullPeriod is the full-TC refresh period in TC emissions under DeltaTC:
// every 4th emission re-floods the whole advertised set. When FisheyeTTLs is
// also set the unlimited-scope emissions carry the full TC instead — they are
// the only ones distant receivers get, and a delta would be unappliable
// there.
const tcFullPeriod = 4

// DefaultFisheyeTTLs returns the default fish-eye schedule: alternate
// 2-hop-scoped and unlimited emissions. With RFC timers that gives near
// nodes the full TC rate and distant nodes half of it (10s period, safely
// under the 15s topology hold time).
func DefaultFisheyeTTLs() []int { return []int{2, 0} }

// DefaultConfig returns RFC-style timers with FNBP selection under the given
// metric.
func DefaultConfig(m metric.Metric) Config {
	return Config{
		HelloInterval:    2 * time.Second,
		TCInterval:       5 * time.Second,
		NeighborHoldTime: 6 * time.Second,
		TopologyHoldTime: 15 * time.Second,
		Metric:           m,
		Selector:         core.FNBP{},
		MPRHeuristic:     mpr.Greedy,
	}
}

type linkEntry struct {
	weight  float64
	expires time.Duration
}

type neighborTable struct {
	// adv is the neighbor's own link set from its HELLO, in normalised
	// (sorted) form — the interned content itself, shared read-only with
	// the emitter and every other receiver of the same block (see
	// advert.go). Emitters publish replace-on-change blocks that are never
	// mutated after emission, so the steady state detects itself with one
	// pointer compare.
	adv     []LinkInfo
	expires time.Duration
}

// RebuildStats counts the node's routing-compute activity: how often
// advertised content was re-announced unchanged (the interning fast paths)
// versus actually changed, how often selection ran, and how many routing
// tables were computed. The counters are monotone over the node's lifetime;
// hosts diff snapshots to window them.
type RebuildStats struct {
	// AdvRefresh counts ingested HELLO/TC-family announcements whose
	// content matched the retained entry (deadline refresh only).
	AdvRefresh uint64
	// AdvShared counts the AdvRefresh subset detected by pointer identity
	// with the retained block — the interned-epoch hit, where sender and
	// receiver provably share one allocation.
	AdvShared uint64
	// AdvChange counts announcements that replaced the retained content
	// and invalidated the routing caches.
	AdvChange uint64
	// TopoBuilds and SPFIncremental are always 0. They are kept only
	// because the benchmark harness (cmd/qolsr-bench, frozen) reads them,
	// and go when it stops doing so (ROADMAP 14(b)).
	TopoBuilds, SPFIncremental uint64
	// Selections counts MPR selection runs: the local view was rebuilt and
	// the MPR and relay sets selected on it because the neighborhood had
	// changed since the last run. The ANS is selected on the same view when
	// a TC or ANS reads it, and not counted apart.
	Selections uint64
	// SPFFull counts the routing tables computed: each is a fresh layout
	// of the routing graph plus one Dijkstra (see Routes).
	SPFFull uint64
	// DeltaResyncs counts delta-TC chain breaks that desynchronised an
	// origin's topology entry, forcing the next full TC to re-anchor it.
	DeltaResyncs uint64
}

// EpochHitRate returns the fraction of content-carrying announcements served
// by the interning fast paths (refreshes over refreshes plus changes), or 0
// before any announcement.
func (s RebuildStats) EpochHitRate() float64 {
	total := s.AdvRefresh + s.AdvChange
	if total == 0 {
		return 0
	}
	return float64(s.AdvRefresh) / float64(total)
}

// Route is one routing-table entry.
type Route struct {
	// NextHop is the neighbor to forward through.
	NextHop int64
	// Value is the QoS value of the route under the node's metric.
	Value float64
	// Hops is the route length.
	Hops int
}

// noExpiry is the watermark value when no tracked deadline is pending.
const noExpiry = time.Duration(math.MaxInt64)

// Node is one OLSR/QOLSR protocol participant. Nodes are single-goroutine
// state machines driven by the simulator: handlers must be called from one
// goroutine. Everything derived from the soft state — the MPR/ANS selection
// and the routing table — is a cached artifact under a version counter (see
// Routes).
type Node struct {
	// ID is the node's unique protocol identifier (also its tie-break
	// identity in the selection algorithms).
	ID  int64
	cfg Config

	// links are this node's own measured links (fed by the link oracle;
	// metric computation is out of the paper's scope).
	links smallTable[linkEntry]
	// neighbors holds per-neighbor HELLO state.
	neighbors smallTable[neighborTable]
	// store holds the TC-learned advertised links of the whole field, one
	// block per origin; this node's rows are the member-th of each block
	// (see topostore.go). topoRows counts the rows it currently holds and
	// topoLinks their advertised links.
	store               *topoStore
	member              int32
	topoRows, topoLinks int
	// lq holds the per-neighbor link estimators: HELLO delivery under
	// SenseDelivery, round trips wherever the host feeds ObserveRTT.
	lq smallTable[lqEstimator]

	helloSeq uint16
	tcSeq    uint16
	ansn     uint16

	// Cached emission link blocks (rebuilt when nhVersion moves): the
	// converged network emits the same HELLO/TC content every period, so
	// the sorted link collection is built once per content change and the
	// slice is shared read-only with every message until then. Rebuilds
	// allocate fresh slices — receivers retain the old ones.
	helloAt  uint64
	helloAdv []LinkInfo
	tcAt     uint64
	tcAdv    []LinkInfo

	mprSet    []int64
	ansSet    []int64
	relaySet  []int64                   // flooding relay set announced in HELLOs (== mprSet unless Config.FloodRelay)
	selectors smallTable[time.Duration] // nodes that chose us as MPR, by selection deadline

	// Delta-TC emission state (GenerateTCUpdate): the emission counter
	// driving the fish-eye/full-refresh schedules, and the chain anchor —
	// the advertised content and flooding Seq of the last full TC plus the
	// number of deltas emitted since it.
	tcEmit      uint64
	lastAdv     []LinkInfo
	lastFullSeq uint16
	chainIdx    uint16
	haveFull    bool

	// nhVersion counts content changes to the neighborhood state (links,
	// neighbor tables) and topoVersion counts content changes to anything
	// the routing graph depends on (neighborhood plus TC-learned
	// topology). Cached derivations compare their build version against
	// the current one instead of recomputing per call.
	nhVersion   uint64
	topoVersion uint64
	// nextExpiry is the earliest deadline across the neighbour-keyed soft
	// state (links, neighbor tables, selectors, link estimators) and
	// topoExpiry the earliest across the topology rows: expire is a no-op
	// while now is before both, and past one only that one's tables are
	// scanned — the O(origins) column walk does not run on every
	// neighbour-hold tick. Each new deadline lowers its
	// watermark; an overwritten entry's earlier deadline may linger until
	// the next scan, which costs an empty scan, never a missed expiry.
	nextExpiry time.Duration
	topoExpiry time.Duration

	// selAt is the nhVersion mprSet/relaySet were selected at, ansAt the
	// one ansSet was.
	selAt, ansAt uint64

	// Cached routing table and the topology version it was computed at.
	// The table is all a node keeps of a computation (see routes.go).
	routesAt uint64
	routes   *Routes

	// stats counts rebuild and interning activity (see RebuildStats).
	stats RebuildStats
}

// RebuildStats returns a snapshot of the node's rebuild counters.
func (n *Node) RebuildStats() RebuildStats { return n.stats }

// StateSize counts what a node currently holds, table by table. In steady
// state every field is flat: soft state is bounded by what is being heard.
type StateSize struct {
	// Links, Neighbors and Selectors count the neighbour-keyed tables: own
	// links, neighbours' HELLO tables, MPR-selector deadlines.
	Links, Neighbors, Selectors int
	// TopologyRows counts the origins the node holds a TC-learned row about.
	TopologyRows int
	// Advertised is the size of the ANS the node holds: the set its latest
	// TC emission (or ANS call) selected, 0 before any or when it was empty.
	Advertised int
}

// StateSize returns the node's current state counts. Nothing is expired or
// selected first: it reports what is held, stale or not.
func (n *Node) StateSize() StateSize {
	return StateSize{
		Links:        n.links.len(),
		Neighbors:    n.neighbors.len(),
		Selectors:    n.selectors.len(),
		TopologyRows: n.topoRows,
		Advertised:   len(n.ansSet),
	}
}

// RoutesDirty reports whether the next Routes call must rebuild the table —
// the protocol state (after expiring what is stale as of now) moved past
// the cached snapshot. Hosts batching table rebuilds use it to tell a
// rebuild from a cache hit.
func (n *Node) RoutesDirty(now time.Duration) bool {
	n.expire(now)
	return n.routes == nil || n.routesAt != n.topoVersion
}

// NewNode returns a stand-alone node with the given identity and
// configuration: a field of one.
func NewNode(id int64, cfg Config) (*Node, error) {
	nodes, err := NewNodes([]int64{id}, cfg)
	if err != nil {
		return nil, err
	}
	return nodes[0], nil
}

// NewNodes returns one node per identifier, all under the same
// configuration, as one field: the nodes share the origin-major store their
// TC-learned topology lives in (see topostore.go), so a host that runs a
// whole population in one process — the simulator — pays for each origin's
// block once instead of once per receiver. Each node is otherwise exactly
// what NewNode returns, and the host must serialise every call on the
// members of one field.
func NewNodes(ids []int64, cfg Config) ([]*Node, error) {
	if cfg.HelloInterval <= 0 || cfg.TCInterval <= 0 {
		return nil, fmt.Errorf("olsr: non-positive intervals in config")
	}
	if cfg.Metric == nil {
		return nil, fmt.Errorf("olsr: config needs a metric")
	}
	if cfg.Selector == nil {
		cfg.Selector = core.FNBP{}
	}
	if cfg.MPRHeuristic == 0 {
		cfg.MPRHeuristic = mpr.Greedy
	}
	for _, h := range []mpr.Heuristic{cfg.MPRHeuristic, cfg.FloodRelay} {
		if h != 0 && (h < mpr.Greedy || h > mpr.MinCover) {
			return nil, fmt.Errorf("olsr: unknown MPR heuristic %v", h)
		}
	}
	if cfg.NeighborHoldTime <= 0 {
		cfg.NeighborHoldTime = 3 * cfg.HelloInterval
	}
	if cfg.TopologyHoldTime <= 0 {
		cfg.TopologyHoldTime = 3 * cfg.TCInterval
	}
	for _, ttl := range cfg.FisheyeTTLs {
		if ttl < 0 {
			return nil, fmt.Errorf("olsr: negative TTL %d in fish-eye schedule", ttl)
		}
	}
	if cfg.DeltaTC && len(cfg.FisheyeTTLs) > 0 && !slices.Contains(cfg.FisheyeTTLs, 0) {
		// Scoped emissions only: distant nodes would never hear a full TC
		// and could never apply a delta — the combination cannot converge.
		return nil, fmt.Errorf("olsr: DeltaTC with fish-eye scoping needs an unlimited (0) schedule entry")
	}
	if cfg.DenseIDs < 0 {
		return nil, fmt.Errorf("olsr: negative DenseIDs %d", cfg.DenseIDs)
	}
	if len(ids) > maxMembers {
		return nil, fmt.Errorf("olsr: %d nodes in one field, at most %d", len(ids), maxMembers)
	}
	store := newTopoStore(len(ids), max(cfg.DenseIDs, len(ids)), cfg.TopologyHoldTime)
	field := make([]Node, len(ids))
	nodes := make([]*Node, len(ids))
	for i, id := range ids {
		field[i] = Node{
			ID:         id,
			cfg:        cfg,
			store:      store,
			member:     int32(i),
			nextExpiry: noExpiry,
			topoExpiry: noExpiry,
		}
		nodes[i] = &field[i]
	}
	return nodes, nil
}

// touchNeighborhood records a content change to links or neighbor tables,
// invalidating every derived cache (the routing graph includes the
// neighborhood, so the topology version moves too).
func (n *Node) touchNeighborhood() {
	n.nhVersion++
	n.topoVersion++
}

// UpdateLink records (or refreshes) this node's own link to a neighbor with
// its current QoS weight, as measured by the out-of-scope metric layer. A
// refresh at an unchanged weight only extends the validity deadline and
// leaves the cached derivations intact.
func (n *Node) UpdateLink(neighbor int64, weight float64, now time.Duration) {
	if neighbor == n.ID {
		return // no self-links
	}
	expires := now + n.cfg.NeighborHoldTime
	n.nextExpiry = min(n.nextExpiry, expires)
	if l := n.links.get(neighbor); l != nil {
		l.expires = expires
		n.reweigh(neighbor, l, weight)
		return
	}
	n.links.put(neighbor, linkEntry{weight: weight, expires: expires})
	n.touchNeighborhood()
}

// reweigh sets a held link's weight, leaving its deadline alone; only an
// actual change invalidates what derives from it.
func (n *Node) reweigh(neighbor int64, l *linkEntry, weight float64) {
	if l.weight != weight {
		l.weight = weight
		n.touchNeighborhood()
	}
}

// expire drops stale state. It is O(1) while the current time is before the
// earliest tracked deadline of either watermark; past one, a scan of that
// watermark's tables drops everything stale and re-derives it from the
// survivors. This wrapper is two compares on the converged path — it runs on
// every handler and every routing lookup, so it must inline.
func (n *Node) expire(now time.Duration) {
	if now >= n.nextExpiry || now >= n.topoExpiry {
		n.expireScan(now)
	}
}

// expireScan is expire's slow path: scan the deadline-carrying tables of
// whichever watermark is due, dropping everything stale and re-deriving the
// watermark. Each watermark stays at or below every deadline of its own
// tables, and a drop only bumps a version, so scanning the two groups at
// different times drops exactly what one combined scan would by the time
// anything reads the state.
func (n *Node) expireScan(now time.Duration) {
	if now >= n.nextExpiry {
		n.expireNeighborhood(now)
	}
	if now >= n.topoExpiry {
		n.expireTopology(now)
	}
}

func (n *Node) expireNeighborhood(now time.Duration) {
	next := noExpiry
	n.links.each(func(id int64, l *linkEntry) {
		if l.expires <= now {
			n.links.del(id)
			n.touchNeighborhood()
		} else if l.expires < next {
			next = l.expires
		}
	})
	n.neighbors.each(func(id int64, t *neighborTable) {
		if t.expires <= now {
			n.neighbors.del(id)
			n.touchNeighborhood()
		} else if t.expires < next {
			next = t.expires
		}
	})
	n.selectors.each(func(id int64, e *time.Duration) {
		if *e <= now {
			n.selectors.del(id)
		} else if *e < next {
			next = *e
		}
	})
	n.lq.each(func(id int64, e *lqEstimator) {
		if e.expires <= now {
			// Dropping an estimator is not a content change: the links
			// table (which expires on its own deadline) is what derived
			// state reads.
			n.lq.del(id)
		} else if e.expires < next {
			next = e.expires
		}
	})
	n.nextExpiry = next
}

// expireTopology drops this node's stale topology rows — its own column of
// the shared store.
func (n *Node) expireTopology(now time.Duration) {
	next := noExpiry
	if n.topoRows > 0 {
		n.store.each(n.member, func(_ int64, t *topoRow, adv []LinkInfo) {
			if t.expires <= now {
				n.topoRows, n.topoLinks = n.topoRows-1, n.topoLinks-len(adv)
				t.expires = 0
				n.topoVersion++
			} else if t.expires < next {
				next = t.expires
			}
		})
	}
	n.topoExpiry = next
}

// GenerateHello produces this node's periodic HELLO. It inlines, so a
// caller that copies the message out keeps it off the heap.
func (n *Node) GenerateHello(now time.Duration) *Hello {
	h := new(Hello)
	n.fillHello(h, now)
	return h
}

// fillHello writes this node's periodic HELLO into h.
func (n *Node) fillHello(h *Hello, now time.Duration) {
	n.expire(now)
	if n.cfg.LinkSensing == SenseRTT {
		n.priceRTT()
	}
	n.recompute(false)
	if n.helloAdv == nil || n.helloAt != n.nhVersion {
		n.helloAt = n.nhVersion
		adv := make([]LinkInfo, 0, n.links.len())
		n.links.each(func(id int64, l *linkEntry) {
			adv = append(adv, LinkInfo{Neighbor: id, Weight: l.weight})
		})
		n.helloAdv = adv
	}
	// The link block and relay set are shared read-only (both replaced,
	// never mutated, on content change). The announced MPRs field is the
	// flooding relay set — the mprSet itself unless Config.FloodRelay
	// splits the roles — because selector state is what gates TC
	// forwarding at the listed neighbors.
	*h = Hello{Origin: n.ID, Seq: n.helloSeq, Links: n.helloAdv, MPRs: n.relaySet, LQs: n.lqBlock()}
	n.helloSeq++
}

// HandleHello ingests a neighbor's HELLO. A HELLO that re-announces the
// neighbor's known link set only refreshes deadlines; one that changes it
// invalidates the cached derivations.
func (n *Node) HandleHello(h *Hello, now time.Duration) {
	if h.Origin == n.ID {
		return // discard own messages (RFC 3626 looped-back traffic)
	}
	n.expire(now)
	switch n.cfg.LinkSensing {
	case SenseOracle:
		// Receiving a HELLO proves the link (ideal symmetric MAC); adopt
		// the neighbor's advertised weight toward us when present so both
		// ends agree on the link weight.
		for _, l := range h.Links {
			if l.Neighbor == n.ID {
				n.UpdateLink(h.Origin, l.Weight, now)
			}
		}
	case SenseDelivery, SenseRTT:
		// The weight combines both ends' measured halves, never an
		// advertised link value.
		n.senseHello(h, now)
	}
	// Under SenseHost the host calls UpdateLink itself; the HELLO only
	// feeds the neighborhood tables below.
	for _, m := range h.MPRs {
		if m == n.ID {
			deadline := now + n.cfg.NeighborHoldTime
			n.selectors.put(h.Origin, deadline)
			n.nextExpiry = min(n.nextExpiry, deadline)
		}
	}
	tbl := n.neighbors.get(h.Origin)
	if tbl == nil {
		tbl = n.neighbors.put(h.Origin, neighborTable{})
	}
	tbl.expires = now + n.cfg.NeighborHoldTime
	n.nextExpiry = min(n.nextExpiry, tbl.expires)
	// The steady-state HELLO re-announces an unchanged link block — in the
	// common case the very same shared slice the previous announcement
	// carried, detected by pointer identity: the deadline refresh above is
	// all it takes, the content stays untouched. Only the advertised links
	// feed the derived state, so equal content means every cached artifact
	// stays valid. An equal-content message with a differently ordered
	// block merely takes the slow path and rebuilds to identical state.
	if sameAdv(tbl.adv, h.Links) {
		if sharedAdv(tbl.adv, h.Links) {
			n.stats.AdvShared++
		}
		n.stats.AdvRefresh++
		return
	}
	old, adv := tbl.adv, normalizeAdv(h.Links)
	tbl.adv = adv
	if !slices.Equal(old, adv) {
		n.stats.AdvChange++
		n.touchNeighborhood()
	} else {
		n.stats.AdvRefresh++
	}
}

// GenerateTC produces this node's periodic TC advertising its ANS, or nil
// when it has nothing to advertise (RFC behaviour: nodes with an empty
// advertised set may stay silent). It is GenerateTCUpdate with the full form
// forced, for hosts that carry neither deltas nor a TTL: dropping the chain
// anchor first makes the emission a full TC that re-anchors the delta chain.
func (n *Node) GenerateTC(now time.Duration) *TC {
	n.haveFull = false
	full, _, _ := n.GenerateTCUpdate(now)
	return full
}

// currentTCAdv returns the cached advertised link block for the current ANS
// (rebuilt when the neighborhood version moved; the slice is shared
// read-only with every emitted message until the next content change).
// Callers must have run recompute(true).
func (n *Node) currentTCAdv() []LinkInfo {
	if n.tcAdv == nil || n.tcAt != n.nhVersion {
		n.tcAt = n.nhVersion
		adv := make([]LinkInfo, 0, len(n.ansSet))
		for _, id := range n.ansSet {
			if l := n.links.get(id); l != nil {
				adv = append(adv, LinkInfo{Neighbor: id, Weight: l.weight})
			}
		}
		n.tcAdv = adv
	}
	return n.tcAdv
}

// GenerateTCUpdate produces this node's periodic topology-control emission
// under the control-plane optimisations, returning exactly one of full and
// delta (both nil when there is nothing to advertise) plus the fish-eye TTL
// scope for this emission (0 = unlimited flood). Like GenerateHello it
// inlines, so a caller that copies a full TC out keeps it off the heap.
//
// A full TC goes out when DeltaTC is off, when no full has been flooded
// since the advertised set was last empty, and on the periodic refresh —
// every tcFullPeriod-th emission, or, under a fish-eye schedule, on every
// unlimited-scope emission (those are the only ones distant receivers get,
// so they must be self-contained). Every other emission carries the delta
// against the previously flooded content; in the converged steady state
// that is an empty header-sized keepalive. Full and delta emissions share
// the origin's flooding sequence space, so the hosts' duplicate suppression
// and the delta chain anchor (FullSeq) both work off the same counter.
func (n *Node) GenerateTCUpdate(now time.Duration) (full *TC, delta *TCDelta, ttl int) {
	return n.fillTCUpdate(new(TC), now)
}

// fillTCUpdate is GenerateTCUpdate writing a full TC into the storage it is
// handed (and returning it) rather than a fresh one.
func (n *Node) fillTCUpdate(full *TC, now time.Duration) (*TC, *TCDelta, int) {
	ttl := 0
	n.expire(now)
	n.recompute(true)
	emit := n.tcEmit
	n.tcEmit++
	if s := n.cfg.FisheyeTTLs; len(s) > 0 {
		ttl = s[emit%uint64(len(s))]
	}
	if len(n.ansSet) == 0 {
		// Nothing to advertise: stay silent (RFC behaviour). Receivers
		// expire the old state on their own; when content returns the
		// chain restarts from a full TC.
		n.haveFull = false
		return nil, nil, ttl
	}
	adv := n.currentTCAdv()
	wantFull := !n.cfg.DeltaTC || !n.haveFull || n.chainIdx == math.MaxUint16
	if !wantFull {
		if len(n.cfg.FisheyeTTLs) > 0 {
			wantFull = ttl == 0
		} else {
			wantFull = emit%tcFullPeriod == 0
		}
	}
	seq := n.tcSeq
	n.tcSeq++
	if wantFull {
		n.lastAdv = adv
		n.lastFullSeq = seq
		n.chainIdx = 0
		n.haveFull = true
		*full = TC{Origin: n.ID, Seq: seq, ANSN: n.ansn, Links: adv}
		return full, nil, ttl
	}
	add, del := diffAdv(n.lastAdv, adv)
	n.lastAdv = adv
	n.chainIdx++
	return nil, &TCDelta{
		Origin:  n.ID,
		Seq:     seq,
		ANSN:    n.ansn,
		FullSeq: n.lastFullSeq,
		Index:   n.chainIdx,
		Add:     add,
		Del:     del,
	}, ttl
}

// diffAdv computes the change from one advertised link block to the next.
// Both are sorted by neighbor (selection output is ascending-ID), so one
// linear merge yields the additions/reweights and the removals.
func diffAdv(old, cur []LinkInfo) (add []LinkInfo, del []int64) {
	i, j := 0, 0
	for i < len(old) && j < len(cur) {
		switch {
		case old[i].Neighbor == cur[j].Neighbor:
			if old[i].Weight != cur[j].Weight {
				add = append(add, cur[j])
			}
			i++
			j++
		case old[i].Neighbor < cur[j].Neighbor:
			del = append(del, old[i].Neighbor)
			i++
		default:
			add = append(add, cur[j])
			j++
		}
	}
	for ; i < len(old); i++ {
		del = append(del, old[i].Neighbor)
	}
	for ; j < len(cur); j++ {
		add = append(add, cur[j])
	}
	return add, del
}

// HandleTCDelta ingests a flooded delta TC received from the direct
// neighbor sender and reports whether this node must re-broadcast it (same
// forwarding rule and host duplicate-suppression contract as HandleTC —
// full and delta draw Seq from the origin's one counter). The content
// applies only when this node is synchronised on the origin's chain,
// holding the state at exactly (FullSeq, Index-1); on any gap the message
// still floods, but the receiver marks the origin desynchronised and waits
// for the next full TC to rebase. The stale entry is kept meanwhile — it remains the best known
// state until rebased or expired.
func (n *Node) HandleTCDelta(d *TCDelta, sender int64, now time.Duration) (forward bool) {
	n.expire(now)
	n.store.tick(now)
	if d.Origin != n.ID {
		n.applyTCDelta(d, now)
	}
	return n.selectors.has(sender)
}

// applyTCDelta merges an in-chain delta into the origin's topology row, or
// flags the row desynchronised on a chain gap.
func (n *Node) applyTCDelta(d *TCDelta, now time.Duration) {
	b, cur := n.store.row(n.member, d.Origin)
	if cur == nil || !cur.synced() {
		return
	}
	if cur.fullSeq != d.FullSeq || d.Index != cur.chain+1 {
		// A gap desynchronises the row; a delta at or below the applied
		// chain position is a stale reordering, not a desync.
		if cur.fullSeq != d.FullSeq || d.Index > cur.chain {
			cur.ver &^= syncedBit
			n.stats.DeltaResyncs++
		}
		return
	}
	cur.chain, cur.ansn = d.Index, d.ANSN
	n.refreshRow(cur, now)
	if len(d.Add) == 0 && len(d.Del) == 0 {
		// The steady-state keepalive: refresh in place, no rebuild and no
		// cache invalidation.
		return
	}
	old := b.links(cur)
	n.setTopo(b, cur, old, b.applyDelta(old, d))
}

// refreshRow extends a topology row's validity by the hold time, keeping the
// node's watermark covering it.
func (n *Node) refreshRow(r *topoRow, now time.Duration) {
	r.expires = now + n.cfg.TopologyHoldTime
	n.topoExpiry = min(n.topoExpiry, r.expires)
}

// HandleTC ingests a flooded TC received from the direct neighbor sender
// and reports whether this node must re-broadcast it (RFC 3626 forwarding
// rule: only if the sender selected us as MPR). A TC that re-advertises an
// origin's known link set only refreshes its deadline.
//
// Duplicate suppression is the host's: it hands each flooded (origin, seq)
// message to a node at most once per topology hold time, so a message is
// forwarded at most once. The simulator keeps a visited set per flood, the
// daemon an (origin, seq) window.
func (n *Node) HandleTC(t *TC, sender int64, now time.Duration) (forward bool) {
	n.expire(now)
	n.store.tick(now)
	if t.Origin == n.ID {
		return n.selectors.has(sender)
	}
	b, cur := n.store.row(n.member, t.Origin)
	switch {
	case cur == nil:
		b, cur = n.store.claim(n.member, t.Origin)
		n.topoRows++
		n.setTopo(b, cur, nil, normalizeAdv(t.Links))
	case ansnNewer(cur.ansn, t.ANSN):
		// Stale (an ANSN regression within the validity window): ignore.
		return n.selectors.has(sender)
	case sameAdv(b.links(cur), t.Links):
		// The steady-state TC re-advertises an unchanged link block —
		// usually the very shared slice the previous flood carried:
		// refresh the row in place, no rebuild and no cache invalidation.
		if sharedAdv(b.links(cur), t.Links) {
			n.stats.AdvShared++
		}
		n.stats.AdvRefresh++
	default:
		n.setTopo(b, cur, b.links(cur), normalizeAdv(t.Links))
	}
	// A full TC is always a valid chain anchor.
	cur.ansn, cur.fullSeq, cur.chain, cur.ver = t.ANSN, t.Seq, 0, cur.ver|syncedBit
	n.refreshRow(cur, now)
	return n.selectors.has(sender)
}

// setTopo makes row r of block b name adv, accounting the change from old.
func (n *Node) setTopo(b *topoBlock, r *topoRow, old, adv []LinkInfo) {
	b.set(r, adv)
	n.topoLinks += len(adv) - len(old)
	if slices.Equal(old, adv) {
		n.stats.AdvRefresh++
		return
	}
	n.stats.AdvChange++
	n.topoVersion++ // the routing table is stale, the selection is not
}

// ansnNewer reports whether current is strictly newer than candidate under
// wrap-around sequence comparison.
func ansnNewer(current, candidate uint16) bool {
	return int16(current-candidate) > 0
}

// recompute brings the selections up to the neighborhood's version: the MPR
// and relay sets whenever it moved, the ANS only when withANS is set — only
// TCs and ANS read it, so a HELLO never runs the ANS selector. Stale sets
// are selected on one local view, built and selected on in the field's
// shared scratch (see topostore.go), so apart from the selectors' result
// slices a run allocates only for a set that actually changed. The ANSN
// increments exactly when a freshly selected ANS differs from the last one.
func (n *Node) recompute(withANS bool) {
	mprs, ans := n.selAt != n.nhVersion, withANS && n.ansAt != n.nhVersion
	if !mprs && !ans {
		return
	}
	view, w := n.buildLocalView()
	if mprs {
		n.selAt = n.nhVersion
		n.stats.Selections++
		if view == nil {
			n.mprSet, n.relaySet = nil, nil
		} else {
			// A selector error leaves the set empty.
			sel, _ := mpr.Select(view, n.cfg.MPRHeuristic, n.cfg.Metric, w)
			n.mprSet, _ = idsOf(n.mprSet, view.G, sel)
			if fr := n.cfg.FloodRelay; fr != 0 && fr != n.cfg.MPRHeuristic {
				rel, _ := mpr.Select(view, fr, n.cfg.Metric, w)
				n.relaySet, _ = idsOf(n.relaySet, view.G, rel)
			} else {
				n.relaySet = n.mprSet
			}
		}
	}
	if ans {
		n.ansAt = n.nhVersion
		if view == nil {
			n.ansSet = nil
		} else {
			sel, _ := n.cfg.Selector.Select(view, n.cfg.Metric, w)
			var changed bool
			if n.ansSet, changed = idsOf(n.ansSet, view.G, sel); changed {
				n.ansn++
			}
		}
	}
}

// idsOf returns the identifiers of the nodes idx and whether they differ from
// prev. An unchanged set is returned as prev itself: the sets are shared
// read-only with emitted messages, so they are replaced, never rewritten.
func idsOf(prev []int64, g *graph.Graph, idx []int32) ([]int64, bool) {
	same := len(prev) == len(idx)
	for i := 0; same && i < len(idx); i++ {
		same = prev[i] == int64(g.ID(idx[i]))
	}
	if same {
		return prev, false
	}
	out := make([]int64, len(idx))
	for i, x := range idx {
		out[i] = int64(g.ID(x))
	}
	return out, true
}

// buildLocalView lays the node's current knowledge of G_u out in the field's
// shared scratch and returns the local view centered at this node with its
// edge weights, or nil when the node has no links. The view's nodes are this
// node, its direct neighbors and everything the neighbors advertise, numbered
// in ascending order by the store's viewIDs, and the scratch applies the
// routing graph's first-writer-wins rule to the first two tiers (own links,
// then adverts in ascending neighbor order; an advert naming this node meets
// the own link first). The view is valid until the next member builds its
// own.
func (n *Node) buildLocalView() (*graph.LocalView, []float64) {
	if n.links.len() == 0 {
		return nil, nil
	}
	x := &n.store.viewIDs
	x.Reset(n.store.window)
	x.Note(graph.NodeID(n.ID))
	for _, id := range n.links.keys {
		x.Note(graph.NodeID(id))
	}
	for _, t := range n.neighbors.vals {
		for _, l := range t.adv {
			x.Note(graph.NodeID(l.Neighbor))
		}
	}
	b := &n.store.view
	b.Begin(x.Seal())
	self := x.At(graph.NodeID(n.ID))
	for i, id := range n.links.keys {
		b.Edge(self, x.At(graph.NodeID(id)), n.links.vals[i].weight)
	}
	for i, nb := range n.neighbors.keys {
		if n.links.has(nb) {
			from := x.At(graph.NodeID(nb))
			for _, l := range n.neighbors.vals[i].adv {
				b.Edge(from, x.At(graph.NodeID(l.Neighbor)), l.Weight)
			}
		}
	}
	return b.View(self, n.cfg.Metric.Name())
}

// MPRSet returns the current multipoint relay set (flooding).
func (n *Node) MPRSet(now time.Duration) []int64 {
	n.expire(now)
	n.recompute(false)
	return append([]int64(nil), n.mprSet...)
}

// ANS returns the current advertised neighbor set (routing), shared
// read-only: a changed set replaces it, so callers must not modify it.
func (n *Node) ANS(now time.Duration) []int64 {
	n.expire(now)
	n.recompute(true)
	return n.ansSet
}

// Selectors returns the nodes that currently select this node as MPR.
func (n *Node) Selectors(now time.Duration) []int64 {
	n.expire(now)
	return append(make([]int64, 0, n.selectors.len()), n.selectors.keys...)
}

// Routes returns the node's current routing table: QoS routes to every known
// destination under the node's metric, the next hop being the first node of
// the canonical best path. Link-state style, the table is rebuilt only when
// the protocol state changed (by message content or expiry) since the last
// call, so many lookups against an unchanged topology share one snapshot and
// allocate nothing; handlers that re-announce unchanged content only refresh
// deadlines. A rebuild (see routes.go) cannot fail: the error is always nil.
func (n *Node) Routes(now time.Duration) (*Routes, error) {
	n.expire(now)
	if n.routes == nil || n.routesAt != n.topoVersion {
		n.routes = n.computeRoutes()
		n.routesAt = n.topoVersion
	}
	return n.routes, nil
}
