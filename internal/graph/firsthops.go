package graph

import (
	"fmt"
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
// Computed on a view built in a ViewScratch, a FirstHops lives in that
// scratch and is valid until the scratch's next ComputeFirstHops or Begin.
type FirstHops struct {
	View *LocalView
	// Dist maps each global node to its optimal path value from the
	// center within G_u (metric.Worst() outside the view or unreached).
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

// Members returns fP(u,v) as global node indices in ascending ID order.
func (fh *FirstHops) Members(v int32) []int32 {
	var out []int32
	fh.ForEach(v, func(i int32) {
		out = append(out, fh.View.N1[i])
	})
	return out
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

// concaveEdge is one E_u edge not incident to the center, a candidate for
// the descending-threshold sweep.
type concaveEdge struct {
	w    float64
	a, b int32
}

// betterFirst orders values best first under m.
func betterFirst(m metric.Metric, a, b float64) int {
	switch {
	case m.Better(a, b):
		return -1
	case m.Better(b, a):
		return 1
	}
	return 0
}

// firstHopsConcave runs one bottleneck Dijkstra from the center, then sweeps
// thresholds downward with a union-find over G_u − u:
//
//	w ∈ fP(u,v)  ⇔  weight(u,w) ⪰ t*  ∧  w ~ v in (G_u − u) restricted to
//	                edges ⪰ t*, where t* = B̃W(u,v)
//
// (with w == v connected trivially, recovering "direct link optimal"). This
// is exact for any concave metric because optimal walks shortcut to optimal
// simple paths, and simple paths starting u→w never revisit u.
func (s *ViewScratch) firstHopsConcave(view *LocalView, m metric.Metric, w []float64) *FirstHops {
	g := view.G
	fh := s.newFirstHops(view, w)
	sp := s.sp.Dijkstra(g, m, w, view.U, view, -1)
	fh.Dist = sp.Dist

	// Collect E_u edges avoiding the center. Equal-weight edges are all
	// united before any target at that threshold is looked at, and targets
	// are independent of one another, so neither sort needs to be stable.
	edges := s.edges[:0]
	s.work = view.ViewEdges(s.work[:0])
	for _, e := range s.work {
		a, b := g.EdgeEndpoints(int(e))
		if a == view.U || b == view.U {
			continue
		}
		edges = append(edges, concaveEdge{w: w[e], a: a, b: b})
	}
	slices.SortFunc(edges, func(x, y concaveEdge) int { return betterFirst(m, x.w, y.w) })
	s.edges = edges

	// Order targets by descending (better-first) optimal value.
	targets := append(append(s.targets[:0], view.N1...), view.N2...)
	slices.SortFunc(targets, func(x, y int32) int { return betterFirst(m, sp.Dist[x], sp.Dist[y]) })
	s.targets = targets

	uf := &s.uf
	uf.Reset(g.N())
	next := 0
	for _, v := range targets {
		if !sp.Reachable(v) {
			continue
		}
		t := sp.Dist[v]
		for next < len(edges) && metric.BetterEq(m, edges[next].w, t) {
			uf.Union(edges[next].a, edges[next].b)
			next++
		}
		for i, hop := range view.N1 {
			if !metric.BetterEq(m, fh.DirectWeight[i], t) {
				continue
			}
			if hop == v || uf.Connected(hop, v) {
				fh.setBit(v, int32(i))
			}
		}
	}
	return fh
}

// FirstHopsReference computes the same result as ComputeFirstHops directly
// from the definition: for every 1-hop neighbor w it searches G_u − u from w
// and tests combine(weight(u,w), dist_{G_u−u}(w,v)) == dist_{G_u}(u,v). It
// works for any metric and serves as the correctness oracle in tests; the
// fast paths are asymptotically cheaper (one search instead of |N(u)|).
func FirstHopsReference(view *LocalView, m metric.Metric, w []float64) *FirstHops {
	g := view.G
	fh := new(ViewScratch).newFirstHops(view, w)
	sp := Dijkstra(g, m, w, view.U, view, -1)
	fh.Dist = sp.Dist
	for i, hop := range view.N1 {
		sub := Dijkstra(g, m, w, hop, view, view.U)
		for _, v := range view.Targets() {
			if !sp.Reachable(v) || !sub.Reachable(v) {
				continue
			}
			if m.Combine(fh.DirectWeight[i], sub.Dist[v]) == sp.Dist[v] {
				fh.setBit(v, int32(i))
			}
		}
	}
	return fh
}
