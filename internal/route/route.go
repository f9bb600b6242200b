// Package route evaluates routing over advertised topologies: it
// materialises the network-wide graph implied by every node's advertised
// neighbor set, computes the QoS value a protocol achieves between a source
// and a destination, and compares it against the centralized optimum — the
// paper's bandwidth/delay overhead metrics (Sec. IV-A):
//
//	bandwidth overhead = (b* − b) / b*        delay overhead = (d − d*) / d*
//
// where starred values come from Dijkstra on the full physical graph.
package route

import (
	"fmt"

	"qolsr/internal/graph"
	"qolsr/internal/metric"
)

// Policy selects how a protocol routes over its advertised topology.
type Policy int

const (
	// QoSOptimal routes on the best QoS path available in the advertised
	// topology, the behaviour of FNBP and topology filtering (both
	// explicitly allow paths longer than the hop-count minimum).
	QoSOptimal Policy = iota + 1
	// MinHopThenQoS routes on minimum-hop paths, breaking ties by QoS —
	// the original QOLSR behaviour the paper describes ("does not allow
	// to choose a path longer than two hops in order to maintain
	// shortest paths in terms of number of hops").
	MinHopThenQoS
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case QoSOptimal:
		return "qos-optimal"
	case MinHopThenQoS:
		return "minhop-then-qos"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// PolicyByName resolves a policy's String form, so scenarios can be
// composed from configuration ("qos-optimal" or "minhop-then-qos").
func PolicyByName(name string) (Policy, error) {
	for _, p := range []Policy{QoSOptimal, MinHopThenQoS} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("route: unknown policy %q (have %s, %s)", name, QoSOptimal, MinHopThenQoS)
}

// PolicyNames lists every policy's string form, in declaration order.
func PolicyNames() []string {
	return []string{QoSOptimal.String(), MinHopThenQoS.String()}
}

// BuildAdvertised returns the advertised topology: a graph over the same
// node set whose edges are exactly the links some node advertises (node n
// advertising neighbor a contributes the undirected link {n,a}), carrying
// the physical weights of the named channel. sets[x] lists the advertised
// neighbors of node x.
func BuildAdvertised(phys *graph.Graph, sets [][]int32, channel string) (*graph.Graph, error) {
	if len(sets) != phys.N() {
		return nil, fmt.Errorf("route: %d advertised sets for %d nodes", len(sets), phys.N())
	}
	w, err := phys.Weights(channel)
	if err != nil {
		return nil, err
	}
	ids := make([]graph.NodeID, phys.N())
	for i := range ids {
		ids[i] = phys.ID(int32(i))
	}
	adv, err := graph.NewWithIDs(ids)
	if err != nil {
		return nil, err
	}
	for x := int32(0); int(x) < phys.N(); x++ {
		for _, a := range sets[x] {
			e, ok := phys.EdgeBetween(x, a)
			if !ok {
				return nil, fmt.Errorf("route: node %d advertises non-neighbor %d", x, a)
			}
			if _, dup := adv.EdgeBetween(x, a); dup {
				continue
			}
			ne, err := adv.AddEdge(x, a)
			if err != nil {
				return nil, err
			}
			if err := adv.SetWeight(channel, ne, w[e]); err != nil {
				return nil, err
			}
		}
	}
	return adv, nil
}

// WithLocalLinks returns a copy of adv augmented with every physical link
// incident to src (ablation A2: in OLSR a source also knows its own links
// from HELLO exchange, whether advertised or not).
func WithLocalLinks(adv, phys *graph.Graph, channel string, src int32) (*graph.Graph, error) {
	w, err := phys.Weights(channel)
	if err != nil {
		return nil, err
	}
	out := adv.Clone()
	for _, arc := range phys.Arcs(src) {
		if _, ok := out.EdgeBetween(src, arc.To); ok {
			continue
		}
		ne, err := out.AddEdge(src, arc.To)
		if err != nil {
			return nil, err
		}
		if err := out.SetWeight(channel, ne, w[arc.Edge]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// PairEval is the outcome of routing one (source, destination) pair.
type PairEval struct {
	// Delivered reports whether the advertised topology contains any
	// route at all.
	Delivered bool
	// Achieved is the QoS value of the path the protocol uses (undefined
	// when not delivered).
	Achieved float64
	// Optimal is the centralized optimum on the physical graph.
	Optimal float64
	// Overhead is the paper's relative regret, 0 when the protocol
	// matches the optimum (undefined when not delivered).
	Overhead float64
	// Hops is the hop count of the used path (0 when not delivered).
	Hops int
}

// EvaluatePair routes src -> dst over the advertised topology under the
// given policy and compares against the centralized optimum on phys. It
// returns an error when dst is unreachable even in the physical graph (the
// caller should resample such pairs, as the paper's simulator draws
// connected pairs).
func EvaluatePair(phys, adv *graph.Graph, m metric.Metric, channel string, src, dst int32, policy Policy) (PairEval, error) {
	w, err := phys.Weights(channel)
	if err != nil {
		return PairEval{}, err
	}
	opt := graph.Dijkstra(phys, m, w, src, nil, -1)
	if !opt.Reachable(dst) {
		return PairEval{}, fmt.Errorf("route: pair (%d,%d) disconnected in the physical graph", src, dst)
	}
	ev := PairEval{Optimal: opt.Dist[dst]}

	switch policy {
	case QoSOptimal:
		aw, err := adv.Weights(channel)
		if err != nil {
			return PairEval{}, err
		}
		sp := graph.Dijkstra(adv, m, aw, src, nil, -1)
		if !sp.Reachable(dst) {
			return ev, nil
		}
		ev.Delivered = true
		ev.Achieved = sp.Dist[dst]
		ev.Hops = len(sp.PathTo(dst)) - 1
	case MinHopThenQoS:
		lex := metric.Lexicographic{
			PrimaryMetric:   metric.Hop(),
			SecondaryMetric: m,
			PrimaryWeight:   channel, // Hop ignores the value
			SecondaryWeight: channel,
		}
		wp, ws, err := graph.LexWeights(adv, lex)
		if err != nil {
			return PairEval{}, err
		}
		var s graph.Scratch
		sp := s.DijkstraLex(adv, lex, wp, ws, src, nil, -1)
		if !sp.Reachable(dst) {
			return ev, nil
		}
		ev.Delivered = true
		ev.Achieved = sp.Second[dst]
		ev.Hops = int(sp.Dist[dst])
	default:
		return PairEval{}, fmt.Errorf("route: unknown policy %v", policy)
	}

	ev.Overhead = Overhead(m, ev.Achieved, ev.Optimal)
	return ev, nil
}

// Overhead computes the paper's relative regret for either metric kind:
// (opt − achieved)/opt for concave metrics (bandwidth that should have been
// used), (achieved − opt)/opt for additive ones (delay that should have been
// saved).
func Overhead(m metric.Metric, achieved, optimal float64) float64 {
	switch m.Kind() {
	case metric.Concave:
		if optimal == 0 {
			return 0
		}
		return (optimal - achieved) / optimal
	default:
		if optimal == 0 {
			return 0
		}
		return (achieved - optimal) / optimal
	}
}

// Forward walks hop-by-hop next-hop decisions from src to dst, up to
// maxHops. next returns the forwarder's choice at each node (-1 when it has
// no route). It returns the traversed path and whether dst was reached;
// loops are cut off by maxHops.
func Forward(next func(at, dst int32) int32, src, dst int32, maxHops int) ([]int32, bool) {
	path := []int32{src}
	at := src
	for hop := 0; hop < maxHops; hop++ {
		if at == dst {
			return path, true
		}
		nx := next(at, dst)
		if nx < 0 {
			return path, false
		}
		at = nx
		path = append(path, at)
	}
	return path, at == dst
}
