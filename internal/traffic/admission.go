package traffic

import (
	"math"
	"time"

	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/olsr"
	"qolsr/internal/sim"
)

// Rejection reasons (Decision.Reason; empty on admission).
const (
	// ReasonNoRoute means the source's table walk never reached the
	// destination (no entry, a stale next hop, or a down link).
	ReasonNoRoute = "no-route"
	// ReasonBandwidth means the path's composed bandwidth value falls
	// below the flow's floor.
	ReasonBandwidth = "bandwidth"
	// ReasonDelay means the path's composed delay bound exceeds the
	// flow's ceiling.
	ReasonDelay = "delay"
)

// Decision is one admission-control verdict with the path evidence it was
// made on.
type Decision struct {
	// Admitted reports whether the flow may start.
	Admitted bool
	// Reason names the failed check when not admitted.
	Reason string
	// Hops is the length of the walked forwarding path (0 when no route).
	Hops int
	// PathValue is the source routing table's metric-composed value for
	// the destination — the protocol's own belief about the path, in the
	// routing metric's units (oracle weights or measured link quality).
	PathValue float64
	// PathBandwidth is the concave-composed capacity of the walked path,
	// in oracle bandwidth-channel units: the routing metric's own value
	// when the protocol routes on those units (concave metric, oracle
	// sensing), else the minimum oracle bandwidth-channel weight along
	// the walk (+Inf when the channel is absent — the floor is then
	// unenforceable).
	PathBandwidth float64
	// PathDelay is the composed delay bound of the walked path: hops
	// times the medium's per-hop latency bound.
	PathDelay time.Duration
	// Feasible reports the oracle judgment at decision time: whether any
	// path on the current effective topology satisfies the requirements.
	// A rejected-but-feasible flow is a false reject; a
	// rejected-and-infeasible flow was correctly rejected.
	Feasible bool
}

// bandwidthChannel is the oracle weight channel the feasibility judge and
// the additive-metric bandwidth check read.
const bandwidthChannel = "bandwidth"

// Gate is the admission controller of one network: it decides a flow's
// admission from the selected path the live routing tables actually forward
// on, composing the protocol's own link values (oracle-fed or measured)
// into path bandwidth and delay and checking them against the flow's
// requirements.
type Gate struct {
	// NW is the network whose routing state gates admissions.
	NW *sim.Network
}

// Decide evaluates one flow at the network's current virtual time. It walks
// the forwarding path hop by hop through each node's own routing table —
// the path packets will actually take — and checks the composed values
// against req.
func (g *Gate) Decide(src, dst int32, req Requirements) Decision {
	nw := g.NW
	now := nw.Engine.Now()
	m := nw.Metric()
	dec := Decision{PathValue: m.Worst(), PathBandwidth: math.Inf(1)}

	oracleBW, _ := nw.Phys.Weights(bandwidthChannel)

	// Walk the forwarding path. Mirrors the data plane's per-hop checks
	// (sim.Network.SendDataTraced): a next hop must exist in the table, be a live
	// physical link, and make progress within the TTL.
	at := src
	reached := false
	for ttl := sim.DefaultDataTTL; ttl > 0 && !reached; ttl-- {
		routes, err := nw.Nodes[at].Routes(now)
		if err != nil {
			break
		}
		entry, ok := routes.Lookup(int64(nw.Phys.ID(dst)))
		if !ok {
			break
		}
		if at == src {
			dec.PathValue = entry.Value
		}
		next := nw.Phys.IndexOf(graph.NodeID(entry.NextHop))
		if next < 0 {
			break
		}
		e, exists := nw.Phys.EdgeBetween(at, next)
		if !exists || !nw.LinkUp(at, next) {
			break
		}
		if oracleBW != nil && oracleBW[e] < dec.PathBandwidth {
			dec.PathBandwidth = oracleBW[e]
		}
		dec.Hops++
		at = next
		reached = at == dst
	}

	dec.Feasible = g.feasible(src, dst, req)
	if !reached {
		dec.Hops = 0
		dec.Reason = ReasonNoRoute
		return dec
	}
	dec.PathDelay = time.Duration(dec.Hops) * nw.HopDelayBound()

	// The bandwidth floor is specified in oracle bandwidth-channel units
	// (link capacities). When the protocol itself routes on those units —
	// a concave metric fed by the oracle — the source's composed route
	// value IS the path bottleneck and is what the floor is checked
	// against (the protocol's own belief, staleness included). Under
	// measured sensing the route values are delivery products in [0,1] —
	// a different unit — so the floor is instead composed from the oracle
	// capacities along the measured-selected path, keeping the check (and
	// the feasibility judge, which prunes by the same channel) unit-
	// coherent in every mode. Additive routing metrics likewise fall back
	// to the oracle-channel min accumulated during the walk.
	if m.Kind() == metric.Concave && nw.LinkSensing() != olsr.SenseDelivery {
		dec.PathBandwidth = dec.PathValue
	}
	if req.MinBandwidth > 0 && dec.PathBandwidth < req.MinBandwidth {
		dec.Reason = ReasonBandwidth
		return dec
	}
	if req.MaxDelay > 0 && dec.PathDelay > req.MaxDelay {
		dec.Reason = ReasonDelay
		return dec
	}
	dec.Admitted = true
	return dec
}

// feasible is the oracle judge: on the current effective topology (physical
// graph minus failed links, minus links below the bandwidth floor when the
// oracle channel exists), does any path satisfy the delay ceiling? It is
// what classifies a rejection as correct (infeasible) or false (feasible).
func (g *Gate) feasible(src, dst int32, req Requirements) bool {
	nw := g.NW
	oracleBW, _ := nw.Phys.Weights(bandwidthChannel)

	// Breadth-first hop counts over admissible links.
	n := nw.Phys.N()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{src}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		if at == dst {
			break
		}
		for _, arc := range nw.Phys.Arcs(at) {
			if dist[arc.To] >= 0 || !nw.LinkUp(at, arc.To) {
				continue
			}
			if req.MinBandwidth > 0 && oracleBW != nil && oracleBW[arc.Edge] < req.MinBandwidth {
				continue
			}
			dist[arc.To] = dist[at] + 1
			queue = append(queue, arc.To)
		}
	}
	if dist[dst] < 0 {
		return false
	}
	if req.MaxDelay > 0 {
		return time.Duration(dist[dst])*nw.HopDelayBound() <= req.MaxDelay
	}
	return true
}
