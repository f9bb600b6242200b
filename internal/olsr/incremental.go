package olsr

import (
	"cmp"
	"fmt"
	"slices"

	"qolsr/internal/graph"
)

// Routing graph: a node lays its routing graph out from the state tables in
// one sorted pass (layoutRoutes), keeps it with an incremental SPF solution
// (graph.SPF) over it, and afterwards repairs only what a change touched.
//
// The unit of change is the unordered node pair. Every handler that alters
// protocol state records the pairs whose effective link may have changed
// (the dirty set); at the next table rebuild each dirty pair is re-resolved
// against the state tables (resolvePair) and the graph edge is added, removed
// or reweighted to match, feeding graph.SPF.Touch. The layout and the
// resolution apply one first-writer-wins precedence — own links, then
// HELLO-learned two-hop links (smaller direct-neighbor contributor first),
// then TC-learned links (smaller origin first) — so the repaired table is
// bit-identical to a fresh layout plus canonical Dijkstra (fullRoutes;
// Config.crossCheck pins this down in tests).
//
// A held routing graph keeps the node set it was laid out with, so its
// indices are in ascending NodeID order and the cached SPF labels stay sized
// to it: nodes that drop out of the protocol state just lose their edges and
// become unreachable, and a repair that names a node the graph has never seen
// gives the graph up (dropRoutes) and lays it out afresh from the tables.
//
// The dirty list exists only while there is a routing graph to repair. A
// node nobody has asked for routes records nothing — its first query lays the
// graph out from the tables — and a node under more churn than dirtyCap
// distinct pairs between two queries gives the graph up too, so the list
// never exceeds dirtyCap entries.

// pairKey is an unordered node pair in normalised (lo <= hi) form.
type pairKey struct {
	lo, hi int64
}

// dirtyCap bounds Node.dirty, in pairs (16 bytes each).
const dirtyCap = 2048

// appendPair appends the pair (a, b) in normalised form. Self-pairs are
// ignored: no link joins a node to itself.
func appendPair(ps []pairKey, a, b int64) []pairKey {
	if a == b {
		return ps
	}
	if a > b {
		a, b = b, a
	}
	return append(ps, pairKey{lo: a, hi: b})
}

func comparePairs(a, b pairKey) int {
	if a.lo != b.lo {
		return cmp.Compare(a.lo, b.lo)
	}
	return cmp.Compare(a.hi, b.hi)
}

func sortPairs(ps []pairKey) { slices.SortFunc(ps, comparePairs) }

// markPair records that the effective link between a and b may have changed.
// Without a routing graph there is nothing to repair and nothing is recorded
// — the wrapper the handlers' hot path inlines.
func (n *Node) markPair(a, b int64) {
	if n.rg != nil {
		n.recordPair(a, b)
	}
}

// recordPair appends to the dirty list, deferring deduplication to the sort
// the consumer performs anyway unless the list is full.
func (n *Node) recordPair(a, b int64) {
	if len(n.dirty) >= dirtyCap {
		n.compactDirty()
		if n.rg == nil {
			return
		}
	}
	n.dirty = appendPair(n.dirty, a, b)
}

// compactDirty deduplicates a full dirty list in place. If that frees less
// than half of it the node is changing faster than it is queried: drop the
// routing graph.
func (n *Node) compactDirty() {
	sortPairs(n.dirty)
	n.dirty = slices.Compact(n.dirty)
	if len(n.dirty) > dirtyCap/2 {
		n.dropRoutes()
	}
}

// dropRoutes gives the routing graph and its SPF solution up: the next query
// lays the graph out from the state tables (an equal table — the crossCheck
// invariant), and recording stops until then.
func (n *Node) dropRoutes() { n.rg, n.rspf, n.dirty = nil, nil, nil }

// layoutRoutes lays the node's routing graph out from the state tables in
// one pass. It stages every tier's links in precedence order — own links,
// then the HELLO adverts of direct neighbors in ascending neighbor order
// (never a pair naming this node), then TC rows in ascending origin order —
// stably sorts them by pair and keeps the first of each pair's run: the
// weight resolvePair gives it. The nodes are this node plus the endpoints of
// the kept edges, in ascending order. Every buffer is the call's own, since
// Routes of different members run concurrently. Callers must have run
// expire(now) first.
func (n *Node) layoutRoutes() *graph.Graph {
	type staged struct {
		pairKey
		w float64
	}
	var es []staged
	stage := func(a, b int64, w float64) {
		if a != b {
			es = append(es, staged{pairKey{min(a, b), max(a, b)}, w})
		}
	}
	for i, id := range n.links.keys {
		stage(n.ID, id, n.links.vals[i].weight)
	}
	for i, nb := range n.neighbors.keys {
		if !n.links.has(nb) {
			continue
		}
		for _, l := range n.neighbors.vals[i].adv {
			if l.Neighbor != n.ID {
				stage(nb, l.Neighbor, l.Weight)
			}
		}
	}
	n.store.eachAsc(n.member, func(origin int64, t *topoRow) {
		for _, l := range t.links() {
			stage(origin, l.Neighbor, l.Weight)
		}
	})
	slices.SortStableFunc(es, func(a, b staged) int { return comparePairs(a.pairKey, b.pairKey) })
	kept := es[:0]
	ids := []graph.NodeID{graph.NodeID(n.ID)}
	for _, e := range es {
		if k := len(kept); k == 0 || kept[k-1].pairKey != e.pairKey {
			kept = append(kept, e)
			ids = append(ids, graph.NodeID(e.lo), graph.NodeID(e.hi))
		}
	}
	slices.Sort(ids)
	ids = slices.Clone(slices.Compact(ids)) // the graph keeps them: no slack
	at := func(id int64) int32 {
		x, _ := slices.BinarySearch(ids, graph.NodeID(id))
		return int32(x)
	}
	ends := make([][2]int32, len(kept))
	w := make([]float64, len(kept))
	for i, e := range kept {
		ends[i], w[i] = [2]int32{at(e.lo), at(e.hi)}, e.w
	}
	return graph.FromEdges(ids, ends, n.cfg.Metric.Name(), w)
}

// markNeighborPairs marks every pair the given neighbor's HELLO table
// advertises. It is called when the neighbor's directness toggles (its own
// link appearing or expiring), which changes the eligibility of all its
// advertised links at once.
func (n *Node) markNeighborPairs(nb int64) {
	if tbl := n.neighbors.get(nb); tbl != nil {
		for _, l := range tbl.adv {
			n.markPair(nb, l.Neighbor)
		}
	}
}

// resolvePair returns the current effective weight of the link between a and
// b, consulting the state maps in the full rebuild's precedence order: own
// links first, then HELLO advertisements from direct neighbors (the smaller
// endpoint's advertisement wins), then TC advertisements (the smaller origin
// wins). The second return is false when no valid state supports the link.
func (n *Node) resolvePair(a, b int64) (float64, bool) {
	if a == n.ID {
		if l := n.links.get(b); l != nil {
			return l.weight, true
		}
	} else if b == n.ID {
		if l := n.links.get(a); l != nil {
			return l.weight, true
		}
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	if w, ok := n.helloAdvertised(lo, hi); ok {
		return w, true
	}
	if w, ok := n.helloAdvertised(hi, lo); ok {
		return w, true
	}
	if t := n.store.row(n.member, lo); t != nil {
		if w, ok := advWeight(t.links(), hi); ok {
			return w, true
		}
	}
	if t := n.store.row(n.member, hi); t != nil {
		if w, ok := advWeight(t.links(), lo); ok {
			return w, true
		}
	}
	return 0, false
}

// helloAdvertised returns nb's advertised weight for its link to peer, when
// nb is a direct neighbor (we hold our own link to it) with a live HELLO
// table. Links to ourselves never come from this tier (our own link table is
// authoritative for those) and neither end can be us as contributor.
func (n *Node) helloAdvertised(nb, peer int64) (float64, bool) {
	if nb == n.ID || peer == n.ID {
		return 0, false
	}
	if !n.links.has(nb) {
		return 0, false
	}
	tbl := n.neighbors.get(nb)
	if tbl == nil {
		return 0, false
	}
	return advWeight(tbl.adv, peer)
}

// applyPair reconciles one dirty pair: re-resolve its effective weight and
// make the routing graph agree, reporting any resulting edge change to the
// incremental SPF. A link to a node outside the graph's node set drops the
// graph instead.
func (n *Node) applyPair(p pairKey, channel string) error {
	w, ok := n.resolvePair(p.lo, p.hi)
	ia, ib := n.rg.IndexOf(graph.NodeID(p.lo)), n.rg.IndexOf(graph.NodeID(p.hi))
	e, exists := 0, false
	if ia >= 0 && ib >= 0 {
		e, exists = n.rg.EdgeBetween(ia, ib)
	}
	var err error
	switch {
	case !ok && !exists:
		return nil // no supporting state, no edge
	case !ok:
		err = n.rg.RemoveEdge(e)
	case exists:
		ws, werr := n.rg.Weights(channel)
		if werr != nil || ws[e] == w {
			return werr
		}
		err = n.rg.SetWeight(channel, e, w)
	case ia < 0 || ib < 0:
		n.dropRoutes()
		return nil
	default:
		if e, err = n.rg.AddEdge(ia, ib); err == nil {
			err = n.rg.SetWeight(channel, e, w)
		}
	}
	if err == nil && n.rspf != nil {
		n.rspf.Touch(ia, ib)
	}
	return err
}

// incrementalRoutes reconciles the dirty pairs into the routing graph,
// repairs the incremental SPF and extracts a fresh routing-table snapshot;
// without a graph (none yet, or one a repair gave up) it lays the graph out
// and solves it from scratch. Callers must have run expire(now) first.
func (n *Node) incrementalRoutes() (*Routes, error) {
	channel := n.cfg.Metric.Name()
	if n.rg != nil && len(n.dirty) > 0 {
		// Deduplicate so each pair resolves once.
		sortPairs(n.dirty)
		for _, p := range slices.Compact(n.dirty) {
			if err := n.applyPair(p, channel); err != nil {
				return nil, err
			}
			if n.rg == nil {
				break
			}
		}
		n.dirty = n.dirty[:0]
	}
	if n.rg == nil {
		n.rg = n.layoutRoutes()
	}
	if n.rspf == nil {
		if n.rg.M() == 0 {
			return &Routes{}, nil
		}
		spf, err := graph.NewSPF(n.rg, n.cfg.Metric, channel, n.rg.IndexOf(graph.NodeID(n.ID)))
		if err != nil {
			return nil, err
		}
		n.rspf = spf
		n.stats.SPFFull++
	} else {
		if err := n.rspf.Repair(); err != nil {
			return nil, err
		}
		n.stats.SPFIncremental++
	}
	n.rfirst = n.rspf.FirstHops(n.rfirst)
	return routeTable(n.rg, n.rfirst, func(x int32) (float64, int32) {
		return n.rspf.Value(x), n.rspf.Hops(x)
	}), nil
}

// routeTable extracts the routing table of a solved routing graph: first[x]
// is the first hop towards node x (-1 for the source and unreachable nodes)
// and label(x) the path value and hop count. A laid-out graph's index order
// is ascending ID order, so the destinations come out in the order
// Routes.Lookup binary-searches.
func routeTable(g *graph.Graph, first []int32, label func(x int32) (float64, int32)) *Routes {
	r := &Routes{}
	for x, f := range first {
		if f < 0 {
			continue
		}
		v, h := label(int32(x))
		r.dsts = append(r.dsts, int64(g.ID(int32(x))))
		r.routes = append(r.routes, Route{NextHop: int64(g.ID(f)), Value: v, Hops: int(h)})
	}
	return r
}

// routesIdentical reports whether two routing tables carry identical content.
func routesIdentical(a, b *Routes) bool {
	if len(a.dsts) != len(b.dsts) {
		return false
	}
	for i := range a.dsts {
		if a.dsts[i] != b.dsts[i] || a.routes[i] != b.routes[i] {
			return false
		}
	}
	return true
}

// crossCheckRoutes validates an incremental table against a from-scratch
// rebuild (Config.crossCheck, the test mode).
func (n *Node) crossCheckRoutes(inc *Routes) error {
	full, err := n.fullRoutes()
	if err != nil {
		return err
	}
	if !routesIdentical(inc, full) {
		return fmt.Errorf("olsr: incremental routing table diverged from full rebuild:\nincremental: %v\nfull:        %v",
			inc.Table(), full.Table())
	}
	return nil
}
