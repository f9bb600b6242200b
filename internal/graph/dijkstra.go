package graph

import (
	"qolsr/internal/metric"
)

// ShortestPaths is the result of a Dijkstra search: optimal path values from
// one source under one metric, with a single optimal predecessor per node for
// path extraction.
//
// The recorded predecessor tree is canonical: each node keeps one
// (value, hops) label, replaced by a better value or, at an equal value, by
// fewer hops, and among equal labels the predecessor with the smallest node
// ID wins. The (Dist, prev) pair is therefore a pure function of the edge
// set, the weights, and the node IDs — independent of edge insertion order,
// node index assignment, and heap mechanics — so two constructions of one
// graph route identically, bit for bit.
//
// The hop count is the fewest along the settled label tree, which is not
// always the fewest among optimal paths. Under an additive metric the two
// agree: the (value, hops) order survives extension by a link. Under a
// concave metric (bandwidth) it does not: a wider, longer path to an
// intermediate node wins its label, and a destination behind a narrower
// link inherits that longer hop count though a shorter path of the same
// width exists. ROADMAP item 2 tracks the exact order; hop-by-hop
// forwarding on this one can loop on width ties.
type ShortestPaths struct {
	// Source is the search origin.
	Source int32
	// Dist maps each node to its optimal path value from Source, or
	// metric.Worst() when unreachable (or outside the searched view).
	Dist []float64
	// Reached lists reached nodes in pop order (Source first), which is
	// nondecreasing in the canonical (value, hops) key.
	Reached []int32

	prev []int32
	hops []int32
}

// PathTo returns one optimal path from the source to t as node indices
// (source first), or nil if t was not reached.
func (sp *ShortestPaths) PathTo(t int32) []int32 {
	if sp.prev[t] == -2 {
		return nil
	}
	var rev []int32
	for x := t; x != -1; x = sp.prev[x] {
		rev = append(rev, x)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Reachable reports whether t was reached by the search.
func (sp *ShortestPaths) Reachable(t int32) bool { return sp.prev[t] != -2 }

// FirstHops derives, for every reached node, the first hop after the source
// on the recorded optimal path and the path's hop count, in one linear pass
// over the pop order (a node's predecessor is always popped before the node,
// so predecessors are resolved first). first[x] is -1 for the source and for
// unreached nodes. The passed buffers are reused when large enough; pass nil
// to allocate fresh ones. It replaces one PathTo walk (and allocation) per
// destination when a whole routing table is being extracted.
func (sp *ShortestPaths) FirstHops(first, hops []int32) (f, h []int32) {
	n := len(sp.Dist)
	first = resizeInt32(first, n)
	hops = resizeInt32(hops, n)
	for i := range first {
		first[i] = -1
		hops[i] = 0
	}
	for _, x := range sp.Reached {
		switch p := sp.prev[x]; p {
		case -1: // the source itself
		case sp.Source:
			first[x] = x
			hops[x] = 1
		default:
			first[x] = first[p]
			hops[x] = hops[p] + 1
		}
	}
	return first, hops
}

// heapItem is one pending entry of the search frontier (lazy deletion). Its
// key is the path value under an additive metric and the value negated under
// a concave one, so that a smaller key is always a better value
// (metric.Kind states the order).
type heapItem struct {
	key  float64
	hops int32
	node int32
}

// keyLess is the canonical frontier order: smaller key (better metric value)
// first, fewer hops on ties. It compares two floats and two hop counts and
// makes no call through the metric. The predecessor-ID tie-break needs no
// heap participation — equal-key candidates only ever update prev in place.
func keyLess(a, b heapItem) bool {
	switch {
	case a.key < b.key:
		return true
	case b.key < a.key:
		return false
	}
	return a.hops < b.hops
}

// Dijkstra computes optimal path values from src in g under metric m with
// per-edge weights w (indexed by edge index, typically g.Weights(channel)).
//
// When view is non-nil the search is confined to the local view G_view: only
// edges of E_view are relaxed, so the result equals a search in the subgraph
// the paper calls G_u. When exclude >= 0 that node is treated as absent,
// which is how the first-hop oracle evaluates paths that must not revisit u.
//
// The metric's Combine must never improve a path (guaranteed by both
// additive metrics with positive weights and concave bottleneck metrics),
// which is the standard Dijkstra admissibility condition. Note that the
// canonical (value, hops, predecessor-ID) order is admissible whenever the
// metric is: extending a path never improves its value, and on equal values
// strictly increases its hop count.
//
// The result owns freshly-allocated buffers; repeated searches that do not
// retain their results should go through a Scratch instead.
func Dijkstra(g *Graph, m metric.Metric, w []float64, src int32, view *LocalView, exclude int32) *ShortestPaths {
	return new(Scratch).Dijkstra(g, m, w, src, view, exclude)
}

// Scratch holds reusable Dijkstra buffers so repeated searches over
// similarly-sized graphs allocate nothing once warm. It is the routing-table
// rebuild workhorse: a protocol node's rebuild borrows one from a pool its
// field's nodes share, searches in it and copies its table out before
// handing the Scratch back.
//
// The zero value is ready to use. A Scratch is not safe for concurrent use,
// and the ShortestPaths returned by its Dijkstra aliases the scratch buffers:
// it is valid only until the next call on the same Scratch.
type Scratch struct {
	sp   ShortestPaths
	done []bool
	heap []heapItem
}

// Reset releases the scratch's retained buffers. Buffers grow to the largest
// graph ever searched and are otherwise kept warm for reuse, so a scratch
// that served a one-off search over a big field pins O(N) memory for its
// owner's lifetime; Reset returns it to the zero value. The ShortestPaths
// most recently returned by Dijkstra aliases the released buffers and must
// not be used afterwards.
func (s *Scratch) Reset() { *s = Scratch{} }

// resizeInt32 returns buf with length n, reusing its storage when possible.
func resizeInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// Dijkstra is the package-level Dijkstra computed in the scratch's reusable
// buffers. The returned ShortestPaths is owned by the Scratch and is
// overwritten by the next call.
func (s *Scratch) Dijkstra(g *Graph, m metric.Metric, w []float64, src int32, view *LocalView, exclude int32) *ShortestPaths {
	n := g.N()
	sp := &s.sp
	sp.Source = src
	if cap(sp.Dist) < n {
		sp.Dist = make([]float64, n)
	}
	sp.Dist = sp.Dist[:n]
	sp.prev = resizeInt32(sp.prev, n)
	sp.hops = resizeInt32(sp.hops, n)
	sp.Reached = sp.Reached[:0]
	worst := m.Worst()
	for i := range sp.Dist {
		sp.Dist[i] = worst
		sp.prev[i] = -2
		sp.hops[i] = 0
	}
	if src == exclude || (view != nil && !view.InView(src)) {
		return sp
	}
	sp.Dist[src] = m.Identity()
	sp.prev[src] = -1
	sign := 1.0 // the heap key of value v is sign·v (see heapItem)
	if m.Kind() == metric.Concave {
		sign = -1
	}

	if cap(s.done) < n {
		s.done = make([]bool, n)
	}
	done := s.done[:n]
	for i := range done {
		done[i] = false
	}
	heap := s.heap[:0]
	heap = pushHeap(heap, heapItem{key: sign * sp.Dist[src], hops: 0, node: src})
	for len(heap) > 0 {
		var top heapItem
		top, heap = popHeap(heap)
		x := top.node
		if done[x] {
			continue
		}
		done[x] = true
		sp.Reached = append(sp.Reached, x)
		for _, arc := range g.Arcs(x) {
			y := arc.To
			if y == exclude || done[y] {
				continue
			}
			if view != nil && !view.HasViewEdge(x, y) {
				continue
			}
			v := m.Combine(sp.Dist[x], w[arc.Edge])
			cand := heapItem{key: sign * v, hops: sp.hops[x] + 1, node: y}
			switch {
			case sp.prev[y] == -2 || keyLess(cand, heapItem{key: sign * sp.Dist[y], hops: sp.hops[y]}):
				sp.Dist[y] = v
				sp.hops[y] = cand.hops
				sp.prev[y] = x
				heap = pushHeap(heap, cand)
			case v == sp.Dist[y] && cand.hops == sp.hops[y] && g.ID(x) < g.ID(sp.prev[y]):
				// Equal canonical key through a smaller-ID predecessor:
				// reroute the tree edge in place. The label (value, hops)
				// is unchanged, so no re-push is needed — and every such
				// candidate arrives before y pops, because its offerer's
				// key is strictly smaller than y's.
				sp.prev[y] = x
			}
		}
	}
	s.heap = heap[:0]
	return sp
}

// pushHeap inserts it into the binary heap ordered so that the best
// canonical key (under keyLess) sits at index 0.
func pushHeap(h []heapItem, it heapItem) []heapItem {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !keyLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

// popHeap removes and returns the best entry.
func popHeap(h []heapItem) (heapItem, []heapItem) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h) && keyLess(h[l], h[best]) {
			best = l
		}
		if r < len(h) && keyLess(h[r], h[best]) {
			best = r
		}
		if best == i {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return top, h
}
