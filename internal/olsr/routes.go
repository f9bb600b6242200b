package olsr

import (
	"cmp"
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
// layout's buffers and the graph.Layout it fills, and the Dijkstra, first-hop
// and hop buffers. A field keeps one (topoStore.routes), not one per node,
// which would hold a graph's worth of memory between queries. Only dst, the
// last layout's ids, outlives a computation: tables take it as their column,
// so a converged field's tables share one instead of N copies, and a layout
// over other ids replaces it rather than writing it.
type routeScratch struct {
	staged      []stagedLink
	ids         graph.IDIndex
	dst         []graph.NodeID
	off         []int32
	bk          []bucketLink
	ends        [][2]int32
	w           []float64
	lay         graph.Layout
	sp          graph.Scratch
	first, hops []int32
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
// set, the weights and the ids), and the entries of a snapshot over the
// layout's column, all it allocates while the ids stay. Callers must have
// run expire(now) first.
func (n *Node) computeRoutes() *Routes {
	s := &n.store.routes
	g := n.layoutRoutes(s)
	sp := s.sp.Dijkstra(g, n.cfg.Metric, s.w, g.IndexOf(graph.NodeID(n.ID)), nil, -1)
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
	if ids := x.Seal(); !slices.Equal(s.dst, ids) {
		s.dst = slices.Clone(ids)
	}
	ids := s.dst
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
