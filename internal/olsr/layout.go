package olsr

import "qolsr/internal/graph"

// layoutScratch is the storage a node's knowledge is laid out in (see
// Node.layout): the staged reports, the numbering of their ends, the counting
// pass's buckets and stamps, and the graph.Layout the graph lives in. A warm
// scratch lays a graph out without allocating.
type layoutScratch struct {
	staged, later []report
	index         graph.IDIndex
	ids           []graph.NodeID // the graph's nodes, ascending
	off, stamp    []int32
	bk            []arc
	ends          [][2]int32
	w             []float64 // per edge, the graph's only channel
	lay           graph.Layout
}

// report is one table's statement of one link: its ends by id, the smaller
// first, and its weight.
type report struct {
	lo, hi int64
	w      float64
}

// arc is a report in its smaller end's bucket, its ends by node index.
type arc struct {
	lo, hi int32
	w      float64
}

// layout lays out what the node knows in s, valid until s is used again: the
// two-hop view G_u (own links, direct neighbors' HELLO adverts) or, with tc,
// the routing graph, which adds every TC row. It is the one place the rule
// for which report of a link wins lives: own measurement, then the HELLO
// advert of the pair's smaller end, then the TC row of the smaller origin.
//
// The rule is staging order: tier by tier, and within a tier a report from
// the pair's smaller end ahead of one from its larger end, so the tables may
// be walked in any order (the store's walk meets overflow slots out of id
// order). The nodes, this node and every staged end, are numbered ascending
// by a graph.IDIndex over the store's window; a stable counting pass buckets
// the reports by their smaller end, and a stamp per node keeps each pair's
// first report. Self-loops are dropped. Callers must have run expire(now).
func (n *Node) layout(s *layoutScratch, tc bool) *graph.Graph {
	x := &s.index
	x.Reset(n.store.window)
	x.Note(graph.NodeID(n.ID))
	es, later := s.staged[:0], s.later[:0]
	// stage notes the far end; a contributor is noted by its caller.
	stage := func(from, to int64, w float64) {
		if from < to {
			x.Note(graph.NodeID(to))
			es = append(es, report{from, to, w})
		} else if from > to {
			x.Note(graph.NodeID(to))
			later = append(later, report{to, from, w})
		}
	}
	endTier := func() { es, later = append(es, later...), later[:0] }
	for i, id := range n.links.keys {
		stage(n.ID, id, n.links.vals[i].weight)
	}
	endTier()
	for i, nb := range n.neighbors.keys {
		if n.links.has(nb) { // nb is noted: it is an own link's end
			for _, l := range n.neighbors.vals[i].adv {
				stage(nb, l.Neighbor, l.Weight)
			}
		}
	}
	endTier()
	if tc {
		n.store.each(n.member, func(origin int64, b *topoBlock, r *topoRow) {
			staged := len(es) + len(later)
			for _, l := range b.state(*r).adv {
				stage(origin, l.Neighbor, l.Weight)
			}
			if len(es)+len(later) > staged {
				x.Note(graph.NodeID(origin))
			}
		})
		endTier()
	}
	s.staged, s.later, s.ids = es, later, x.Seal()
	ids := s.ids
	// Counting pass: off[lo+1] starts at bucket lo's first slot and ends, once
	// the reports are placed, past its last, so bucket lo is off[lo]:off[lo+1].
	off := resized(s.off, len(ids)+2)
	clear(off)
	for _, e := range es {
		off[x.At(graph.NodeID(e.lo))+2]++
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	bk := resized(s.bk, len(es))
	for _, e := range es {
		lo := x.At(graph.NodeID(e.lo))
		bk[off[lo+1]] = arc{lo, x.At(graph.NodeID(e.hi)), e.w}
		off[lo+1]++
	}
	// stamp[hi] is lo+1 once bucket lo kept a report naming hi.
	stamp := resized(s.stamp, len(ids))
	clear(stamp)
	ends, w := resized(s.ends, len(es)), resized(s.w, len(es))
	kept := 0
	for _, e := range bk {
		if stamp[e.hi] != e.lo+1 {
			stamp[e.hi] = e.lo + 1
			ends[kept], w[kept] = [2]int32{e.lo, e.hi}, e.w
			kept++
		}
	}
	s.off, s.bk, s.stamp, s.ends, s.w = off, bk, stamp, ends[:kept], w[:kept]
	return s.lay.Lay(ids, s.ends, n.cfg.Metric.Name(), s.w)
}

// resized returns buf with length n, reusing its storage when possible.
// The contents are not cleared.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
