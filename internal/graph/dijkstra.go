package graph

import (
	"qolsr/internal/metric"
)

// ShortestPaths is the result of a Dijkstra search: optimal path values from
// one source, with a single optimal predecessor per node for path
// extraction.
//
// The search settles a two-part key per node: (primary value, secondary
// value). The primary is the metric the search optimises; the secondary
// breaks exact primary ties. Dijkstra is the case whose secondary is
// metric.Hop(), so a plain search prefers, among equally good paths, the
// one with fewer hops; DijkstraLex runs the same loop with a second metric
// over its own weights (metric.Lexicographic).
//
// The recorded predecessor tree is canonical: each node keeps one
// (primary, secondary) label, replaced only by a strictly better one, and
// among equal labels the predecessor with the smallest node ID wins. When
// every link strictly worsens the key — as the hop count always does — the
// (Dist, Second, prev) triple is therefore a pure function of the edge set,
// the weights, and the node IDs, independent of edge insertion order, node
// index assignment, and heap mechanics, so two constructions of one graph
// route identically, bit for bit.
//
// The secondary value is the one along the settled label tree, which is not
// always the best among primary-optimal paths. Under an additive primary
// the two agree: the two-part order survives extension by a link. Under a
// concave primary (bandwidth) it does not: a wider, longer path to an
// intermediate node wins its label, and a destination behind a narrower
// link inherits that longer hop count (or costlier secondary) though a
// shorter path of the same width exists. ROADMAP items 1 and 23 track the
// exact order; hop-by-hop forwarding on this one can loop on width ties.
type ShortestPaths struct {
	// Source is the search origin.
	Source int32
	// Dist maps each node to its optimal path value from Source under the
	// primary metric, or its Worst() when unreachable (or outside the
	// searched view).
	Dist []float64
	// Second maps each node to its settled label's secondary value: the
	// hop count for Dijkstra, the secondary metric's path value for
	// DijkstraLex, and the secondary's Worst() when unreachable.
	Second []float64
	// Reached lists reached nodes in pop order (Source first), which is
	// nondecreasing in the (primary, secondary) key.
	Reached []int32

	prev []int32
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
	first = resize(first, n)
	hops = resize(hops, n)
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

// heapItem is one pending entry of the search frontier (lazy deletion). Each
// key is its level's path value under an additive metric and the value
// negated under a concave one, so that a smaller key is always a better
// value (metric.Kind states the order).
type heapItem struct {
	key, key2 float64
	node      int32
}

// keyLess is the canonical frontier order: smaller primary key first, then
// smaller secondary key. It compares floats and makes no call through the
// metrics. The predecessor-ID tie-break needs no heap participation —
// equal-key candidates only ever update prev in place.
func keyLess(a, b heapItem) bool {
	switch {
	case a.key < b.key:
		return true
	case b.key < a.key:
		return false
	}
	return a.key2 < b.key2
}

// keySign is the factor turning m's path values into heap keys (see
// heapItem).
func keySign(m metric.Metric) float64 {
	if m.Kind() == metric.Concave {
		return -1
	}
	return 1
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

// resize returns buf with length n, reusing its storage when possible.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Dijkstra is the package-level Dijkstra computed in the scratch's reusable
// buffers. The returned ShortestPaths is owned by the Scratch and is
// overwritten by the next call.
func (s *Scratch) Dijkstra(g *Graph, m metric.Metric, w []float64, src int32, view *LocalView, exclude int32) *ShortestPaths {
	return s.DijkstraLex(g, metric.Lexicographic{PrimaryMetric: m, SecondaryMetric: metric.Hop()}, w, w, src, view, exclude)
}

// DijkstraLex is Dijkstra under lex's two-part order: lex.PrimaryMetric over
// the weights wp decides, and exact ties fall to lex.SecondaryMetric over
// ws. Dist holds the primary values and Second the secondary ones (see
// ShortestPaths for what the settled secondary is when the primary is
// concave). The weight channels lex names are not read; LexWeights fetches
// them. The result is owned by the Scratch, as Dijkstra's is.
func (s *Scratch) DijkstraLex(g *Graph, lex metric.Lexicographic, wp, ws []float64, src int32, view *LocalView, exclude int32) *ShortestPaths {
	m, m2 := lex.PrimaryMetric, lex.SecondaryMetric
	n := g.N()
	sp := &s.sp
	sp.Source = src
	sp.Dist = resize(sp.Dist, n)
	sp.Second = resize(sp.Second, n)
	sp.prev = resize(sp.prev, n)
	sp.Reached = sp.Reached[:0]
	worst, worst2 := m.Worst(), m2.Worst()
	for i := range sp.Dist {
		sp.Dist[i] = worst
		sp.Second[i] = worst2
		sp.prev[i] = -2
	}
	if src == exclude || (view != nil && !view.InView(src)) {
		return sp
	}
	sp.Dist[src] = m.Identity()
	sp.Second[src] = m2.Identity()
	sp.prev[src] = -1
	sign, sign2 := keySign(m), keySign(m2)

	s.done = resize(s.done, n)
	done := s.done
	for i := range done {
		done[i] = false
	}
	heap := s.heap[:0]
	heap = pushHeap(heap, heapItem{key: sign * sp.Dist[src], key2: sign2 * sp.Second[src], node: src})
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
			v := m.Combine(sp.Dist[x], wp[arc.Edge])
			v2 := m2.Combine(sp.Second[x], ws[arc.Edge])
			cand := heapItem{key: sign * v, key2: sign2 * v2, node: y}
			switch {
			case sp.prev[y] == -2 || keyLess(cand, heapItem{key: sign * sp.Dist[y], key2: sign2 * sp.Second[y]}):
				sp.Dist[y] = v
				sp.Second[y] = v2
				sp.prev[y] = x
				heap = pushHeap(heap, cand)
			case v == sp.Dist[y] && v2 == sp.Second[y] && g.ID(x) < g.ID(sp.prev[y]):
				// Equal key through a smaller-ID predecessor: reroute
				// the tree edge in place. The label is unchanged, so no
				// re-push is needed — and when links strictly worsen
				// the key every such candidate arrives before y pops,
				// because its offerer's key is strictly smaller than
				// y's.
				sp.prev[y] = x
			}
		}
	}
	s.heap = heap[:0]
	return sp
}

// LexWeights returns the weight slices of the two channels lex names. A
// graph without links needs neither channel.
func LexWeights(g *Graph, lex metric.Lexicographic) (wp, ws []float64, err error) {
	if g.M() == 0 {
		return nil, nil, nil
	}
	if wp, err = g.Weights(lex.PrimaryWeight); err != nil {
		return nil, nil, err
	}
	if ws, err = g.Weights(lex.SecondaryWeight); err != nil {
		return nil, nil, err
	}
	return wp, ws, nil
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
