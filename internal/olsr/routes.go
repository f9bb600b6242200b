package olsr

import (
	"iter"
	"slices"

	"qolsr/internal/graph"
)

// Routes is a node's routing table as a compact, read-only snapshot: an
// ascending column of destination ids and one pointer-free entry per column
// position, naming its next hop by column position. The column belongs to
// the field's routing scratch and is shared by every table laid out over the
// same ids; it is never written, so a table is immutable and stays valid
// after any member rebuilds. A lookup is one binary search, allocation-free.
type Routes struct {
	dst     []graph.NodeID // the shared column, ascending
	entries []routeEntry   // per column position
	reached int
	serial  uint64
}

// routeEntry is the route to one column position, 16 bytes with no pointer:
// next is the first hop's position, -1 where there is no route.
type routeEntry struct {
	value float64
	hops  int32
	next  int32
}

// Len returns the number of destinations with a route.
func (r *Routes) Len() int { return r.reached }

// Serial returns the snapshot's serial: never 0 and different for every table
// its node computes, so a cache can key on it without holding the snapshot.
func (r *Routes) Serial() uint64 { return r.serial }

// Lookup returns the route to dst, if one exists.
func (r *Routes) Lookup(dst int64) (Route, bool) {
	if i, ok := slices.BinarySearch(r.dst, graph.NodeID(dst)); ok && r.entries[i].next >= 0 {
		return r.route(i), true
	}
	return Route{}, false
}

// All yields every destination with a route, and the route, ascending.
func (r *Routes) All() iter.Seq2[int64, Route] {
	return func(yield func(int64, Route) bool) {
		for i := range r.entries {
			if r.entries[i].next >= 0 && !yield(int64(r.dst[i]), r.route(i)) {
				return
			}
		}
	}
}

// route returns the route at column position i, which must have one.
func (r *Routes) route(i int) Route {
	e := &r.entries[i]
	return Route{NextHop: int64(r.dst[e.next]), Value: e.value, Hops: int(e.hops)}
}

// routeScratch is the working storage of one routing-table computation: the
// layout the routing graph is laid out in, and the Dijkstra, first-hop and
// hop buffers. A field keeps one (topoStore.routes), not one per node, which
// would hold a graph's worth of memory between queries. Only dst, the last
// layout's ids, outlives a computation: tables take it as their column, so a
// converged field's tables share one instead of N copies, and a layout over
// other ids replaces it rather than writing it.
type routeScratch struct {
	lay         layoutScratch
	dst         []graph.NodeID
	sp          graph.Scratch
	first, hops []int32
}

// computeRoutes computes the routing table from the state tables: a fresh
// layout of the routing graph, one canonical Dijkstra over it (its
// predecessor tree, and so every next hop, is a pure function of the edge
// set, the weights and the ids), and the entries of a snapshot over the
// layout's column, all it allocates while the ids stay. Callers must have
// run expire(now) first.
func (n *Node) computeRoutes() *Routes {
	s := &n.store.routes
	g := n.layoutRoutes(s)
	sp := s.sp.Dijkstra(g, n.cfg.Metric, s.lay.w, g.IndexOf(graph.NodeID(n.ID)), nil, -1)
	s.first, s.hops = sp.FirstHops(s.first, s.hops)
	n.stats.SPFFull++
	// Every reached node but the source has a first hop, the others -1. The
	// count of tables computed, this one included, is the serial.
	r := &Routes{dst: s.dst, entries: make([]routeEntry, g.N()), reached: len(sp.Reached) - 1, serial: n.stats.SPFFull}
	for x, f := range s.first {
		r.entries[x] = routeEntry{sp.Dist[x], s.hops[x], f}
	}
	return r
}

// layoutRoutes lays the node's routing graph out in s.lay (see Node.layout)
// and makes s.dst its ids. Callers must have run expire(now) first.
func (n *Node) layoutRoutes(s *routeScratch) *graph.Graph {
	g := n.layout(&s.lay, true)
	if !slices.Equal(s.dst, s.lay.ids) {
		s.dst = slices.Clone(s.lay.ids)
	}
	return g
}
