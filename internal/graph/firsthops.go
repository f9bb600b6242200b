package graph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"qolsr/internal/metric"
)

// FirstHops holds, for one local view centered at u, the optimal path value
// B̃W(u,v) / D̃(u,v) toward every node of the view and the first-hop sets
// fP(u,v): the 1-hop neighbors that start at least one optimal simple path
// from u to v inside G_u (paper Sec. III-A).
//
// Sets are bitsets over N1 positions (LocalView.N1Index). By the paper's
// observation, v ∈ fP(u,v) exactly when the direct link (u,v) is itself
// optimal.
//
// Computed on a view taken from a ViewScratch, a FirstHops lives in that
// scratch and is valid until the scratch's next ComputeFirstHops or View.
type FirstHops struct {
	View *LocalView
	// Dist maps each global node to its optimal path value from the
	// center within G_u (metric.Worst() outside the view or unreached). For a
	// concave metric it is exact: a bottleneck value is a copy of one link's
	// weight, never a rounded sum.
	Dist []float64
	// DirectWeight maps each N1 position to the weight of the direct link
	// from the center, used by the ≺ ordering.
	DirectWeight []float64

	blocks int
	sets   []uint64 // blocks words per global node, all zero when unreached
}

// set returns fP(u,v) as its bitset words.
func (fh *FirstHops) set(v int32) []uint64 {
	return fh.sets[int(v)*fh.blocks : (int(v)+1)*fh.blocks]
}

// Contains reports whether the 1-hop neighbor at N1 position i belongs to
// fP(u, v).
func (fh *FirstHops) Contains(v int32, i int32) bool {
	return fh.set(v)[i/64]&(1<<(uint(i)%64)) != 0
}

// Count returns |fP(u,v)|.
func (fh *FirstHops) Count(v int32) int {
	total := 0
	for _, b := range fh.set(v) {
		total += bits.OnesCount64(b)
	}
	return total
}

// ForEach invokes fn with every N1 position in fP(u,v), in ascending
// position order (which is ascending NodeID order since N1 is ID-sorted).
func (fh *FirstHops) ForEach(v int32, fn func(i int32)) {
	for blk, b := range fh.set(v) {
		for b != 0 {
			fn(int32(blk*64 + bits.TrailingZeros64(b)))
			b &= b - 1
		}
	}
}

func (fh *FirstHops) setBit(v int32, i int32) {
	fh.set(v)[i/64] |= 1 << (uint(i) % 64)
}

// newFirstHops readies s.fh for view: direct weights filled, sets empty.
func (s *ViewScratch) newFirstHops(view *LocalView, w []float64) *FirstHops {
	fh := &s.fh
	fh.View = view
	fh.blocks = (len(view.N1) + 63) / 64
	fh.sets = append(fh.sets[:0], make([]uint64, view.G.N()*fh.blocks)...)
	fh.DirectWeight = fh.DirectWeight[:0]
	for _, e := range view.direct {
		fh.DirectWeight = append(fh.DirectWeight, w[e])
	}
	return fh
}

// ComputeFirstHops computes optimal values and first-hop sets for the view
// under m, dispatching to the additive or concave fast path. Working storage
// and the result come from the view's ViewScratch, or from a fresh one for a
// NewLocalView view (whose result is then the caller's to keep).
func ComputeFirstHops(view *LocalView, m metric.Metric, w []float64) (*FirstHops, error) {
	s := view.scratch
	if s == nil {
		s = new(ViewScratch)
	}
	switch m.Kind() {
	case metric.Additive:
		return s.firstHopsAdditive(view, m, w), nil
	case metric.Concave:
		return s.firstHopsConcave(view, m, w), nil
	default:
		return nil, fmt.Errorf("graph: unsupported metric kind %v", m.Kind())
	}
}

// firstHopsAdditive runs one Dijkstra from the center and back-propagates
// first-hop bitsets along the shortest-path predecessor DAG. For strictly
// positive additive weights the pop order is strictly increasing along every
// optimal path, so processing nodes in pop order sees all predecessors
// finalised.
func (s *ViewScratch) firstHopsAdditive(view *LocalView, m metric.Metric, w []float64) *FirstHops {
	g := view.G
	fh := s.newFirstHops(view, w)
	sp := s.sp.Dijkstra(g, m, w, view.U, view, -1)
	fh.Dist = sp.Dist
	for _, x := range sp.Reached {
		if x == view.U {
			continue
		}
		for _, arc := range g.Arcs(x) {
			y := arc.To
			if !view.HasViewEdge(y, x) || !sp.Reachable(y) {
				continue
			}
			if m.Combine(sp.Dist[y], w[arc.Edge]) != sp.Dist[x] {
				continue
			}
			if y == view.U {
				// Optimal path arrives directly from u: x itself is the
				// first hop (x is necessarily a 1-hop neighbor).
				fh.setBit(x, view.N1Index(x))
			} else {
				dst := fh.set(x)
				for i, b := range fh.set(y) {
					dst[i] |= b
				}
			}
		}
	}
	return fh
}

// concaveEdge is one E_u edge of the concave sweep. A direct link of the
// center has a == view.U and the 1-hop neighbor as b.
type concaveEdge struct {
	w    float64
	a, b int32
}

// firstHopsConcave finds every optimal value and first-hop set in one
// Kruskal-style pass over E_u in descending (best-first) weight order. For a
// bottleneck metric
//
//	w ∈ fP(u,v)  ⇔  weight(u,w) ⪰ t*  ∧  w ~ v in (G_u − u) restricted to
//	                edges ⪰ t*, where t* = B̃W(u,v)
//
// (with w == v connected trivially, recovering "direct link optimal"). This
// is exact for any concave metric because optimal walks shortcut to optimal
// simple paths, and simple paths starting u→w never revisit u.
//
// The sweep keeps that right-hand side for every threshold t at once: a
// union-find over G_u − u restricted to edges ⪰ t, and per component the
// bitset of its active hops (members whose direct link is ⪰ t) and a list of
// its pending targets (members with no value yet). An edge of G_u − u merges
// two components, OR-ing the bitsets and splicing the lists; a direct link
// (u,w) sets w's bit in w's component. A component that holds both an active
// hop and pending targets finalises them: Dist[v] = t and fP(u,v) = the
// component's bitset.
//
// That t is t*: a value is a minimum over a path's links, hence always some
// edge's weight, the state only changes at an edge's weight, and the right-
// hand side is unsatisfiable at every better threshold — the component had no
// active hop then. Edges of equal weight are one threshold, so a whole group
// is applied before any component is looked at: finalising between two of
// its edges would miss hops the rest of the group still connects. Each
// target is written once.
//
// E_u is ordered without a comparator: each edge is one uint64, its weight's
// order-reversing key (descKey) with the low bits.Len(|E_u|) bits replaced by
// the edge's position, and radixSortKeys orders the plain keys. Weights whose
// keys differ only in those low bits collide and come out in position order,
// so one insertion pass on the exact weights restores descending order; it is
// linear unless weights collide. That is exact for any weights and any view
// size, and keeps each group of equal weights contiguous. The cost is one
// radix pass over |E_u| keys per key byte that varies plus
// O(|E_u| α(|V_u|) + |V_u| · blocks).
func (s *ViewScratch) firstHopsConcave(view *LocalView, m metric.Metric, w []float64) *FirstHops {
	g := view.G
	n := g.N()
	fh := s.newFirstHops(view, w)
	blocks := fh.blocks

	// All of E_u, best first: larger is better for every concave metric
	// (metric.Kind), so the order is resolved here and not through m.Better.
	edges := s.edges[:0]
	s.work = view.ViewEdges(s.work[:0])
	for _, e := range s.work {
		a, b := g.EdgeEndpoints(int(e))
		if b == view.U {
			a, b = b, a
		}
		edges = append(edges, concaveEdge{w: w[e], a: a, b: b})
	}
	s.edges = edges
	keys, shift := concaveKeys(s.keys, edges)
	mask := uint64(1)<<shift - 1
	keys, s.keyBuf = radixSortKeys(keys, s.keyBuf, shift)
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && edges[keys[j]&mask].w > edges[keys[j-1]&mask].w; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	s.keys = keys

	if cap(s.dist) < n {
		s.dist = make([]float64, n)
	}
	dist := s.dist[:n]
	worst := m.Worst()
	for i := range dist {
		dist[i] = worst
	}
	dist[view.U] = m.Identity()
	fh.Dist = dist

	// Per component, at its union-find root: active[root*blocks:] is the hop
	// bitset, pend[root] one member of the circular next-linked list of
	// pending targets, -1 once they are finalised. Every node starts as a
	// pending singleton; the center and nodes outside the view stay that way.
	uf := &s.uf
	uf.Reset(n)
	s.active = append(s.active[:0], make([]uint64, n*blocks)...)
	s.pend, s.next = resize(s.pend, n), resize(s.next, n)
	active, pend, next := s.active, s.pend, s.next
	for i := range pend {
		pend[i], next[i] = int32(i), int32(i)
	}

	for lo, hi := 0, 0; lo < len(keys); lo = hi {
		t := edges[keys[lo]&mask].w
		for hi = lo + 1; hi < len(keys) && edges[keys[hi]&mask].w == t; hi++ {
		}
		group := keys[lo:hi]
		for _, key := range group {
			e := edges[key&mask]
			if e.a == view.U {
				i := int(view.N1Index(e.b))
				active[int(uf.Find(e.b))*blocks+i/64] |= 1 << (uint(i) % 64)
				continue
			}
			r, old := uf.Union(e.a, e.b)
			if old < 0 {
				continue
			}
			for k := 0; k < blocks; k++ {
				active[int(r)*blocks+k] |= active[int(old)*blocks+k]
			}
			if p, q := pend[r], pend[old]; p < 0 {
				pend[r] = q
			} else if q >= 0 {
				next[p], next[q] = next[q], next[p]
			}
		}
		// Only a component the group touched can have become finalisable.
		for _, key := range group {
			r := uf.Find(edges[key&mask].b)
			p := pend[r]
			hops := active[int(r)*blocks : (int(r)+1)*blocks]
			if p < 0 || !slices.ContainsFunc(hops, func(b uint64) bool { return b != 0 }) {
				continue
			}
			for v := p; ; {
				dist[v] = t
				copy(fh.set(v), hops)
				if v = next[v]; v == p {
					break
				}
			}
			pend[r] = -1
		}
	}
	return fh
}

// concaveKeys returns in keys the sort key of every edge, in position order:
// its weight's descKey with the low shift = bits.Len(len(edges)) bits replaced
// by its position.
func concaveKeys(keys []uint64, edges []concaveEdge) (_ []uint64, shift int) {
	shift = bits.Len(uint(len(edges)))
	mask := uint64(1)<<shift - 1
	keys = keys[:0]
	for i, e := range edges {
		keys = append(keys, descKey(e.w)&^mask|uint64(i))
	}
	return keys, shift
}

// radixSortKeys sorts keys ascending by least-significant-digit radix sort,
// one stable pass per byte, through buf, and returns the sorted keys and the
// other buffer. The keys must be unique, in ascending order of their low
// shift bits, and carry in those bits only their position in keys, as
// firstHopsConcave builds them. A byte that is equal in every key needs no
// pass, and neither does a byte of position bits alone: the input is already
// sorted on those, so the passes over the higher bytes, being stable, leave
// every tie in position order. Unique keys have one ascending order, so the
// result is slices.Sort's.
func radixSortKeys(keys, buf []uint64, shift int) (sorted, spare []uint64) {
	if len(keys) < 2 {
		return keys, buf
	}
	var varies uint64
	for _, k := range keys {
		varies |= k ^ keys[0]
	}
	if cap(buf) < len(keys) {
		buf = make([]uint64, len(keys))
	}
	buf = buf[:len(keys)]
	var start [256]int
	for sh := uint(shift / 8 * 8); sh < 64; sh += 8 {
		if byte(varies>>sh) == 0 {
			continue
		}
		clear(start[:])
		for _, k := range keys {
			start[byte(k>>sh)]++
		}
		sum := 0
		for d, c := range start {
			start[d], sum = sum, sum+c
		}
		for _, k := range keys {
			d := byte(k >> sh)
			buf[start[d]] = k
			start[d]++
		}
		keys, buf = buf, keys
	}
	return keys, buf
}

// descKey maps a weight to a uint64 whose ascending order is the weight's
// descending order: the bits of a weight with a clear sign bit with all but
// that bit flipped, the bits of one with it set (negative, or −0) unchanged.
func descKey(w float64) uint64 {
	b := math.Float64bits(w)
	if b>>63 == 0 {
		return b ^ (1<<63 - 1)
	}
	return b
}

// FirstHopsReference computes the same result as ComputeFirstHops directly
// from the definition, for any metric: it is FirstHopsLex under the neutral
// pair (m, m), whose two levels are equal on every path, so the order is m's.
// It is the correctness oracle in tests; the fast paths are asymptotically
// cheaper (one search instead of |N(u)| + 1).
func FirstHopsReference(view *LocalView, m metric.Metric, w []float64) *FirstHops {
	return FirstHopsLex(view, metric.Lexicographic{PrimaryMetric: m, SecondaryMetric: m}, w, w)
}

// FirstHopsLex computes first-hop sets under lex's two-part order from the
// definition: for every 1-hop neighbor w it searches G_u − u from w, and w ∈
// fP(u,v) when cost(u,w) extended by w's cost to v ties the center's cost to
// v in G_u (neither is lex.Better). wp and ws are the two levels' weights
// (LexWeights); Dist and DirectWeight hold the primary level. Under a concave
// primary the costs compared carry the settled secondary (ShortestPaths).
func FirstHopsLex(view *LocalView, lex metric.Lexicographic, wp, ws []float64) *FirstHops {
	g := view.G
	fh := new(ViewScratch).newFirstHops(view, wp)
	var fromScratch, subScratch Scratch
	from := fromScratch.DijkstraLex(g, lex, wp, ws, view.U, view, -1)
	fh.Dist = from.Dist
	for i, hop := range view.N1 {
		direct := metric.LexCost{Primary: wp[view.direct[i]], Secondary: ws[view.direct[i]]}
		sub := subScratch.DijkstraLex(g, lex, wp, ws, hop, view, view.U)
		for _, v := range view.Targets() {
			if !from.Reachable(v) || !sub.Reachable(v) {
				continue
			}
			via := lex.Combine(direct, metric.LexCost{Primary: sub.Dist[v], Secondary: sub.Second[v]})
			best := metric.LexCost{Primary: from.Dist[v], Secondary: from.Second[v]}
			if !lex.Better(via, best) && !lex.Better(best, via) {
				fh.setBit(v, int32(i))
			}
		}
	}
	return fh
}
