package graph

import "qolsr/internal/metric"

// ReducedView is a local view with relative-neighborhood-graph filtering
// applied to its edges, the topology reduction of Moraru & Simplot-Ryl used
// by the topology-filtering QANS baseline (paper Sec. II, [7], [10]).
type ReducedView struct {
	View *LocalView
	// Keep flags, by edge index of the view's graph, which edges of E_u
	// survive the reduction; every other edge reads false.
	Keep []bool
}

// ReduceRNG filters the edges of view under the relative neighborhood rule
// adapted to the metric: edge (x,y) is removed when some witness z adjacent
// to both inside G_u offers a strictly better two-hop detour on both legs:
//
//	m.Better(w(x,z), w(x,y))  ∧  m.Better(w(z,y), w(x,y))
//
// For delay this is Toussaint's classic lune condition (both legs shorter);
// for bandwidth both legs must be strictly wider. Strictness on both legs
// guarantees the reduction keeps a maximum (resp. minimum) spanning tree, so
// it preserves connectivity and, in particular, widest-path/least-delay
// reachability inside the view.
//
// A view taken from a ViewScratch lends the working storage and Keep, valid
// until its next View; any other view allocates them.
func ReduceRNG(view *LocalView, m metric.Metric, w []float64) ReducedView {
	g := view.G
	s := view.scratch
	if s == nil {
		s = new(ViewScratch)
	}
	s.rngEdges = view.ViewEdges(s.rngEdges[:0])
	keep := resize(s.keep, g.M())
	clear(keep)

	// neighborWeight[z] caches w(z,y) for the y currently being scanned,
	// stamped per edge to avoid clearing.
	neighborWeight := resize(s.rngW, g.N())
	stamp := resize(s.rngStamp, g.N())
	clear(stamp)
	cur := int32(0)

	for _, e := range s.rngEdges {
		x, y := g.EdgeEndpoints(int(e))
		cur++
		for _, arc := range g.Arcs(y) {
			if view.HasViewEdge(y, arc.To) {
				stamp[arc.To] = cur
				neighborWeight[arc.To] = w[arc.Edge]
			}
		}
		removed := false
		for _, arc := range g.Arcs(x) {
			z := arc.To
			if z == y || stamp[z] != cur || !view.HasViewEdge(x, z) {
				continue
			}
			if m.Better(w[arc.Edge], w[e]) && m.Better(neighborWeight[z], w[e]) {
				removed = true
				break
			}
		}
		keep[e] = !removed
	}
	s.keep, s.rngW, s.rngStamp = keep, neighborWeight, stamp
	return ReducedView{View: view, Keep: keep}
}
