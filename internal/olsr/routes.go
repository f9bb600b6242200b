package olsr

import (
	"cmp"
	"slices"

	"qolsr/internal/graph"
)

// Routes is a node's routing table as a compact, read-only snapshot: one
// pointer-free entry per destination in ascending identifier order, naming its
// next hop by index into the snapshot's list of distinct next hops. It is
// built once per topology change and shared by every caller until the node's
// state moves, so a lookup is one binary search with no allocation. It must
// not be modified, and stays valid after the owning node rebuilds its table.
type Routes struct {
	entries []routeEntry
	via     []int64 // distinct next hops, in order of first use
	serial  uint64
}

// routeEntry is one destination's route: 24 bytes with no pointer in it.
type routeEntry struct {
	dst   int64
	value float64
	hops  int32
	via   int32 // index into Routes.via
}

// Len returns the number of destinations with a route.
func (r *Routes) Len() int { return len(r.entries) }

// Serial returns the snapshot's serial number: never 0, and different for
// every table its node computes, so a cache can key on it without holding
// the snapshot.
func (r *Routes) Serial() uint64 { return r.serial }

// Lookup returns the route to dst, if one exists.
func (r *Routes) Lookup(dst int64) (Route, bool) {
	i, ok := slices.BinarySearchFunc(r.entries, dst, func(e routeEntry, dst int64) int { return cmp.Compare(e.dst, dst) })
	if !ok {
		return Route{}, false
	}
	_, route := r.At(i)
	return route, true
}

// At returns the i-th entry in ascending destination order, 0 <= i < Len().
func (r *Routes) At(i int) (dst int64, route Route) {
	e := &r.entries[i]
	return e.dst, Route{NextHop: r.via[e.via], Value: e.value, Hops: int(e.hops)}
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

// routeScratch is the working storage of one routing-table computation:
// the layout's buffers and the graph.Layout it fills, the Dijkstra, first-hop
// and hop buffers and the next-hop numbering. Nothing in it outlives the
// computation, so a field keeps one (topoStore.routes) rather than one per
// node: a node that kept its scratch would hold a graph's worth of memory
// between queries.
type routeScratch struct {
	staged      []stagedLink
	ids         graph.IDIndex
	off         []int32
	bk          []bucketLink
	ends        [][2]int32
	w           []float64
	lay         graph.Layout
	sp          graph.Scratch
	first, hops []int32
	viaAt       []int32 // per node index: its position in via plus one, 0 if none
	via         []int64
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
// set, the weights and the ids), and the table copied out into a snapshot,
// the only thing it allocates. Callers must have run expire(now) first.
func (n *Node) computeRoutes() *Routes {
	s := &n.store.routes
	g := n.layoutRoutes(s)
	sp := s.sp.Dijkstra(g, n.cfg.Metric, s.w, g.IndexOf(graph.NodeID(n.ID)), nil, -1)
	s.first, s.hops = sp.FirstHops(s.first, s.hops)
	n.stats.SPFFull++
	// Every reached node but the source has a first hop; index order is
	// ascending ID order, the order Lookup binary-searches. The count of
	// tables computed, this one included, is the serial.
	r := &Routes{entries: make([]routeEntry, 0, len(sp.Reached)-1), serial: n.stats.SPFFull}
	s.viaAt, s.via = append(s.viaAt[:0], make([]int32, g.N())...), s.via[:0]
	for x, f := range s.first {
		if f < 0 {
			continue
		}
		if s.viaAt[f] == 0 {
			s.via = append(s.via, int64(g.ID(f)))
			s.viaAt[f] = int32(len(s.via))
		}
		r.entries = append(r.entries, routeEntry{int64(g.ID(int32(x))), sp.Dist[x], s.hops[x], s.viaAt[f] - 1})
	}
	r.via = slices.Clone(s.via)
	return r
}

// layoutRoutes lays the node's routing graph out from the state tables in
// linear time, in s's buffers and s.lay, where it stays valid until s is used
// again. Every link is staged with its precedence rank — its tier (own links,
// the HELLO adverts of direct neighbors but never a pair naming this node, TC
// rows) times two, plus one when its contributor is the pair's larger end —
// so the tables are walked in any order. The nodes (this node and every
// staged end) are numbered in ascending order by a graph.IDIndex over the
// store's window; the links are bucketed by their smaller end in one counting
// pass, each bucket is ordered by (larger end, rank), and each pair keeps its
// first link: own links first, then the smaller direct-neighbor contributor's
// HELLO advert, then the smaller origin's TC row. Callers must have run
// expire(now) first.
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
	n.store.each(n.member, func(origin int64, b *topoBlock, r *topoRow) {
		for _, l := range b.state(*r).adv {
			stage(2, origin, l.Neighbor, l.Weight)
		}
	})
	s.staged = es
	x := &s.ids
	x.Reset(n.store.window)
	x.Note(graph.NodeID(n.ID))
	for _, e := range es {
		x.Note(graph.NodeID(e.lo))
		x.Note(graph.NodeID(e.hi))
	}
	ids := x.Seal()
	// Counting pass: off[lo+1] starts at bucket lo's first slot and ends, once
	// the links are placed, past its last, so bucket lo is off[lo]:off[lo+1].
	off := resized(s.off, len(ids)+2)
	clear(off)
	for i := range es {
		e := &es[i]
		e.lo, e.hi = int64(x.At(graph.NodeID(e.lo))), int64(x.At(graph.NodeID(e.hi)))
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
	return s.lay.Lay(ids, ends, n.cfg.Metric.Name(), w)
}
