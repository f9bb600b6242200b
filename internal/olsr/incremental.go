package olsr

import (
	"cmp"
	"fmt"
	"slices"

	"qolsr/internal/graph"
)

// Routing graph: a node lays its routing graph out from the state tables in
// linear time (layoutRoutes), keeps it with an incremental SPF solution
// (graph.SPF) over it, and afterwards repairs only what a change touched.
//
// The unit of change is the unordered node pair. Every handler that alters
// protocol state records the pairs whose effective link may have changed
// (the dirty set); at the next table rebuild each dirty pair is re-resolved
// against the state tables (resolvePair) and the graph edge is added, removed
// or reweighted to match, feeding graph.SPF.Touch. The layout and the
// resolution apply one precedence in any walk order — own links, then
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

func sortPairs(ps []pairKey) {
	slices.SortFunc(ps, func(a, b pairKey) int { return cmp.Or(cmp.Compare(a.lo, b.lo), cmp.Compare(a.hi, b.hi)) })
}

// markPair records that the effective link between a and b may have changed.
// Without a routing graph there is nothing to repair and nothing is recorded
// — the wrapper the handlers' hot path inlines.
func (n *Node) markPair(a, b int64) {
	if n.rg != nil {
		n.recordPair(a, b)
	}
}

// recordPair appends the pair (a, b) to the dirty list in normalised form,
// deferring deduplication to the sort the consumer performs anyway unless the
// list is full. Self-pairs are ignored: no link joins a node to itself.
func (n *Node) recordPair(a, b int64) {
	if len(n.dirty) >= dirtyCap {
		n.compactDirty()
		if n.rg == nil {
			return
		}
	}
	if a != b {
		n.dirty = append(n.dirty, pairKey{min(a, b), max(a, b)})
	}
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
// linear time. Every link is staged with its precedence rank — its tier (own
// links, the HELLO adverts of direct neighbors but never a pair naming this
// node, TC rows) times two, plus one when its contributor is the pair's
// larger end — so the tables are walked in any order. The nodes (this node
// and every staged end) are indexed in ascending order, through a table over
// the store's identity window and a sorted list outside it; the links are
// bucketed by their smaller end in one counting pass, each bucket is ordered
// by (larger end, rank), and each pair keeps its first link: the weight
// resolvePair gives it. Every buffer is the call's own, since Routes of
// different members run concurrently. Callers must have run expire(now) first.
func (n *Node) layoutRoutes() *graph.Graph {
	type staged struct {
		lo, hi int64
		w      float64
		rank   uint64
	}
	size := len(n.links.keys) + n.topoLinks
	for _, t := range n.neighbors.vals {
		size += len(t.adv)
	}
	es := make([]staged, 0, size)
	stage := func(tier uint64, from, to int64, w float64) {
		if from < to {
			es = append(es, staged{from, to, w, 2 * tier})
		} else if from > to {
			es = append(es, staged{to, from, w, 2*tier + 1})
		}
	}
	for i, id := range n.links.keys {
		stage(0, n.ID, id, n.links.vals[i].weight)
	}
	for i, nb := range n.neighbors.keys {
		if !n.links.has(nb) {
			continue
		}
		for _, l := range n.neighbors.vals[i].adv {
			if l.Neighbor != n.ID {
				stage(1, nb, l.Neighbor, l.Weight)
			}
		}
	}
	n.store.each(n.member, func(origin int64, t *topoRow) {
		for _, l := range t.links() {
			stage(2, origin, l.Neighbor, l.Weight)
		}
	})
	index := make([]int32, n.store.window) // 1 marks an in-window id, then its node index
	var outside []graph.NodeID
	inside := 0
	note := func(id int64) {
		switch {
		case uint64(id) >= uint64(len(index)):
			if outside == nil {
				outside = make([]graph.NodeID, 0, 2*len(es)+1)
			}
			outside = append(outside, graph.NodeID(id))
		case index[id] == 0:
			index[id], inside = 1, inside+1
		}
	}
	note(n.ID)
	for _, e := range es {
		note(e.lo)
		note(e.hi)
	}
	slices.Sort(outside)
	outside = slices.Compact(outside)
	below, _ := slices.BinarySearch(outside, 0)
	ids := append(make([]graph.NodeID, 0, len(outside)+inside), outside[:below]...)
	for id, m := range index {
		if m != 0 {
			index[id] = int32(len(ids))
			ids = append(ids, graph.NodeID(id))
		}
	}
	ids = append(ids, outside[below:]...)
	at := func(id int64) int32 {
		if uint64(id) < uint64(len(index)) {
			return index[id]
		}
		x, _ := slices.BinarySearch(ids, graph.NodeID(id))
		return int32(x)
	}
	// Counting pass: off[lo+1] starts at bucket lo's first slot and ends, once
	// the links are placed, past its last, so bucket lo is off[lo]:off[lo+1].
	// A link's key packs its larger end over its rank.
	type link struct {
		key uint64
		w   float64
	}
	off := make([]int32, len(ids)+2)
	for i := range es {
		e := &es[i]
		e.lo, e.hi = int64(at(e.lo)), int64(at(e.hi))
		off[e.lo+2]++
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	bk := make([]link, len(es))
	for _, e := range es {
		bk[off[e.lo+1]] = link{uint64(e.hi)<<3 | e.rank, e.w}
		off[e.lo+1]++
	}
	kept, start := 0, int32(0)
	for lo := range ids {
		run := bk[start:off[lo+1]]
		slices.SortFunc(run, func(a, b link) int { return cmp.Compare(a.key, b.key) })
		kept += copy(bk[kept:], slices.CompactFunc(run, func(a, b link) bool { return a.key>>3 == b.key>>3 }))
		start, off[lo+1] = off[lo+1], int32(kept)
	}
	ends, w := make([][2]int32, kept), make([]float64, kept)
	for lo := range ids {
		for i := off[lo]; i < off[lo+1]; i++ {
			ends[i], w[i] = [2]int32{int32(lo), int32(bk[i].key >> 3)}, bk[i].w
		}
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

// routeTable extracts the routing table of a solved routing graph, sized once
// to its node count: first[x] is the first hop towards node x (-1 for the
// source and unreachable nodes) and label(x) the path value and hop count. A
// laid-out graph's index order is ascending ID order, so the destinations
// come out in the order Routes.Lookup binary-searches.
func routeTable(g *graph.Graph, first []int32, label func(x int32) (float64, int32)) *Routes {
	r := &Routes{dsts: make([]int64, 0, len(first)), routes: make([]Route, 0, len(first))}
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
