package olsr

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"qolsr/internal/graph"
)

// Routes is a node's routing table as a compact, read-only view: destinations
// in ascending identifier order with their routes stored index-addressed in
// parallel slices. A *Routes is a consistent snapshot — it is built once per
// topology change and shared by every caller until the node's state moves, so
// lookups on the data-plane hot path cost one binary search and zero
// allocations instead of a full table recomputation.
//
// The view must not be modified. It stays valid (as a snapshot of the state
// it was computed from) even after the owning node rebuilds its table.
type Routes struct {
	dsts   []int64
	routes []Route
}

// Len returns the number of destinations with a route.
func (r *Routes) Len() int { return len(r.dsts) }

// Lookup returns the route to dst, if one exists.
func (r *Routes) Lookup(dst int64) (Route, bool) {
	i := sort.Search(len(r.dsts), func(i int) bool { return r.dsts[i] >= dst })
	if i < len(r.dsts) && r.dsts[i] == dst {
		return r.routes[i], true
	}
	return Route{}, false
}

// At returns the i-th entry in ascending destination order, 0 <= i < Len().
func (r *Routes) At(i int) (dst int64, route Route) {
	return r.dsts[i], r.routes[i]
}

// Table materialises the view as a freshly-allocated map. It exists for
// display and offline analysis; hot paths should use Lookup/At, which do not
// allocate.
func (r *Routes) Table() map[int64]Route {
	out := make(map[int64]Route, len(r.dsts))
	for i, dst := range r.dsts {
		out[dst] = r.routes[i]
	}
	return out
}

// stagedLink is one link a layout stages, with its precedence rank.
type stagedLink struct {
	lo, hi int64
	w      float64
	rank   uint64
}

// bucketLink is one link in its smaller end's bucket: key packs the larger
// end's node index over the rank.
type bucketLink struct {
	key uint64
	w   float64
}

// routeScratch is the working storage of one routing-table computation: the
// layout's staging, index and bucket slices, the edge arrays graph.FromEdges
// takes over, the Dijkstra buffers and the first-hop and hop buffers. Nothing
// in it outlives the computation, whose result is copied out into the
// snapshot, so scratches are pooled rather than kept per node: a node that
// kept its scratch would hold a graph's worth of memory between queries.
type routeScratch struct {
	staged      []stagedLink
	index       []int32 // per in-window id: 1 once seen, then its node index
	outside     []graph.NodeID
	ids         []graph.NodeID
	off         []int32
	bk          []bucketLink
	ends        [][2]int32
	w           []float64
	sp          graph.Scratch
	first, hops []int32
}

// scratchPool is a field's pool of routing scratch (topoStore.routes). Routes
// of different members run at once in a host's rebuild barrier, so each
// computation takes a scratch for its duration and puts it back; the pool
// holds as many as ever ran at once. Unlike a sync.Pool it keeps them across
// garbage collections, so what a rebuild allocates does not depend on when
// the collector last ran.
type scratchPool struct {
	mu   sync.Mutex
	free []*routeScratch
}

func (p *scratchPool) get() *routeScratch {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := len(p.free)
	if k == 0 {
		return new(routeScratch)
	}
	s := p.free[k-1]
	p.free = p.free[:k-1]
	return s
}

func (p *scratchPool) put(s *routeScratch) {
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// resized returns buf with length n, reusing its storage when possible.
// The contents are not cleared.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// computeRoutes computes the routing table from the state tables: a fresh
// layout of the routing graph, one canonical Dijkstra over it (its
// predecessor tree, and so every next hop, is a pure function of the edge
// set, the weights and the ids), and the table copied out into a snapshot.
// Callers must have run expire(now) first.
func (n *Node) computeRoutes() *Routes {
	s := n.store.routes.get()
	defer n.store.routes.put(s)
	g := n.layoutRoutes(s)
	sp := s.sp.Dijkstra(g, n.cfg.Metric, s.w, g.IndexOf(graph.NodeID(n.ID)), nil, -1)
	s.first, s.hops = sp.FirstHops(s.first, s.hops)
	n.stats.SPFFull++
	// Every reached node but the source has a first hop; index order is
	// ascending ID order, the order Lookup binary-searches.
	reached := len(sp.Reached) - 1
	r := &Routes{dsts: make([]int64, 0, reached), routes: make([]Route, 0, reached)}
	for x, f := range s.first {
		if f >= 0 {
			r.dsts = append(r.dsts, int64(g.ID(int32(x))))
			r.routes = append(r.routes, Route{NextHop: int64(g.ID(f)), Value: sp.Dist[x], Hops: int(s.hops[x])})
		}
	}
	return r
}

// layoutRoutes lays the node's routing graph out from the state tables in
// linear time, in s's buffers: the graph aliases them and is valid until s is
// used again. Every link is staged with its precedence rank — its tier (own
// links, the HELLO adverts of direct neighbors but never a pair naming this
// node, TC rows) times two, plus one when its contributor is the pair's
// larger end — so the tables are walked in any order. The nodes (this node
// and every staged end) are indexed in ascending order, through a table over
// the store's identity window and a sorted list outside it; the links are
// bucketed by their smaller end in one counting pass, each bucket is ordered
// by (larger end, rank), and each pair keeps its first link: own links first,
// then the smaller direct-neighbor contributor's HELLO advert, then the
// smaller origin's TC row. Callers must have run expire(now) first.
func (n *Node) layoutRoutes(s *routeScratch) *graph.Graph {
	size := len(n.links.keys) + n.topoLinks
	for _, t := range n.neighbors.vals {
		size += len(t.adv)
	}
	es := slices.Grow(s.staged[:0], size)
	stage := func(tier uint64, from, to int64, w float64) {
		if from < to {
			es = append(es, stagedLink{from, to, w, 2 * tier})
		} else if from > to {
			es = append(es, stagedLink{to, from, w, 2*tier + 1})
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
	s.staged = es
	index := resized(s.index, n.store.window)
	clear(index)
	outside := s.outside[:0]
	inside := 0
	note := func(id int64) {
		switch {
		case uint64(id) >= uint64(len(index)):
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
	s.index, s.outside = index, outside
	below, _ := slices.BinarySearch(outside, 0)
	ids := append(slices.Grow(s.ids[:0], len(outside)+inside), outside[:below]...)
	for id, m := range index {
		if m != 0 {
			index[id] = int32(len(ids))
			ids = append(ids, graph.NodeID(id))
		}
	}
	ids = append(ids, outside[below:]...)
	s.ids = ids
	at := func(id int64) int32 {
		if uint64(id) < uint64(len(index)) {
			return index[id]
		}
		x, _ := slices.BinarySearch(ids, graph.NodeID(id))
		return int32(x)
	}
	// Counting pass: off[lo+1] starts at bucket lo's first slot and ends, once
	// the links are placed, past its last, so bucket lo is off[lo]:off[lo+1].
	off := resized(s.off, len(ids)+2)
	clear(off)
	for i := range es {
		e := &es[i]
		e.lo, e.hi = int64(at(e.lo)), int64(at(e.hi))
		off[e.lo+2]++
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	bk := resized(s.bk, len(es))
	for _, e := range es {
		bk[off[e.lo+1]] = bucketLink{uint64(e.hi)<<3 | e.rank, e.w}
		off[e.lo+1]++
	}
	kept, start := 0, int32(0)
	for lo := range ids {
		run := bk[start:off[lo+1]]
		slices.SortFunc(run, func(a, b bucketLink) int { return cmp.Compare(a.key, b.key) })
		kept += copy(bk[kept:], slices.CompactFunc(run, func(a, b bucketLink) bool { return a.key>>3 == b.key>>3 }))
		start, off[lo+1] = off[lo+1], int32(kept)
	}
	ends, w := resized(s.ends, kept), resized(s.w, kept)
	for lo := range ids {
		for i := off[lo]; i < off[lo+1]; i++ {
			ends[i], w[i] = [2]int32{int32(lo), int32(bk[i].key >> 3)}, bk[i].w
		}
	}
	s.off, s.bk, s.ends, s.w = off, bk, ends, w
	return graph.FromEdges(ids, ends, n.cfg.Metric.Name(), w)
}
