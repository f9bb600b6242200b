package graph

import (
	"fmt"

	"qolsr/internal/metric"
)

// SPF maintains a single-source shortest-path solution over a mutating
// graph, repairing only the affected region instead of rebuilding from
// scratch. It is the dynamic counterpart of Scratch.Dijkstra and converges
// to the exact same canonical solution, which is a pure function of the
// current edge set, weights and node IDs — the property that makes
// "repair" and "rebuild from scratch" bit-identical (the cross-check tests
// pin this down).
//
// The canonical solution is hierarchical. First, optimal path values under
// the metric (unique for admissible metrics). Then, hop counts: the
// shortest hop distance from the source over the *tight* arcs — arcs x→y
// with Combine(dist[x], w) == dist[y] — i.e. the fewest hops among paths
// every prefix of which is value-optimal. Last, the predecessor: among
// tight minimum-hop predecessors, the one with the smallest NodeID. The
// one-pass canonical Dijkstra computes the same triple thanks to its
// global best-first order.
//
// Repair mirrors that hierarchy in two waves, because for concave metrics
// a single lexicographic (value, hops) label is not monotone under edge
// extension: a node's value can improve while paths through it lose hops
// support, so one label-correcting wave could retain hop counts a full
// rebuild would never produce. Wave 1 settles values (classic dynamic SPF:
// invalidate the subtrees hanging off touched tree edges, reseed from the
// intact frontier, run a monotone label-correcting wave). Wave 2 then
// rebuilds hop counts and predecessors over the tight-arc graph for every
// node whose value changed or that a touched edge could re-support —
// strictly monotone (+1 per arc), hence incrementally sound.
//
// Usage: mutate the underlying graph's edges (AddEdge / RemoveEdge /
// SetWeight), report every touched endpoint pair with Touch, then call
// Repair before reading the solution. Touches accumulate, so a batch of
// topology changes costs one repair. The labels are sized to the graph's
// node set once, in NewSPF: a caller whose node set changes builds a new
// solver. The initial solution is canonical Dijkstra's (Scratch.Dijkstra);
// the waves below only ever repair it.
type SPF struct {
	g       *Graph
	m       metric.Metric
	channel string
	src     int32

	dist []float64
	hops []int32
	prev []int32 // -1 source, -2 unreached

	touched [][2]int32 // endpoint pairs mutated since the last Repair

	// Repair scratch.
	vheap   []heapItem
	hheap   []hopItem
	mark    []uint8 // per-repair affected classification
	changed []bool  // nodes whose value changed this repair
	chain   []int32
	seeded  []bool
}

const (
	markUnknown uint8 = iota
	markAffected
	markSafe
)

// hopInf is the "hops unknown" sentinel during wave 2.
const hopInf = int32(1) << 30

// hopItem is one pending entry of the hop wave's frontier.
type hopItem struct {
	hops int32
	node int32
}

// NewSPF builds the solver over g's node set and takes its initial labels
// from one canonical Dijkstra search from src over the named weight channel.
// The search runs in buffers the solver keeps: its labels become the SPF's,
// its visited set and pop-order list become repair scratch, so the full
// solve allocates nothing the solver would not hold anyway.
func NewSPF(g *Graph, m metric.Metric, channel string, src int32) (*SPF, error) {
	w, err := g.Weights(channel)
	if err != nil {
		return nil, err
	}
	n := g.N()
	if src < 0 || int(src) >= n {
		return nil, fmt.Errorf("graph: spf source %d out of range [0,%d)", src, n)
	}
	scr := Scratch{done: make([]bool, n), sp: ShortestPaths{Reached: make([]int32, 0, n)}}
	sp := scr.Dijkstra(g, m, w, src, nil, -1)
	return &SPF{
		g: g, m: m, channel: channel, src: src,
		dist: sp.Dist, hops: sp.hops, prev: sp.prev,
		vheap: scr.heap, mark: make([]uint8, n), changed: make([]bool, n),
		chain: sp.Reached[:0], seeded: scr.done,
	}, nil
}

// Touch records that the edge between a and b was added, removed, or
// reweighted. Call it after the graph mutation; order within a batch does
// not matter.
func (s *SPF) Touch(a, b int32) {
	s.touched = append(s.touched, [2]int32{a, b})
}

// Value returns the optimal path value to x, or the metric's Worst when x
// is unreachable.
func (s *SPF) Value(x int32) float64 { return s.dist[x] }

// Hops returns the canonical hop count of x's recorded path (0 for the
// source and for unreachable nodes).
func (s *SPF) Hops(x int32) int32 { return s.hops[x] }

// Reachable reports whether x is currently reachable from the source.
func (s *SPF) Reachable(x int32) bool { return s.prev[x] != -2 }

// Repair processes all recorded touches and restores the canonical
// solution. With no touches pending it is a no-op.
func (s *SPF) Repair() error {
	w, err := s.g.Weights(s.channel)
	if err != nil {
		return err
	}
	if len(s.touched) == 0 {
		return nil
	}
	n := s.g.N()
	changed := s.changed[:n]
	for i := range changed {
		changed[i] = false
	}

	// Wave 1 — values. Invalidate the value of every node whose shortest-
	// path tree ran through a touched tree edge, then settle values with a
	// label-correcting wave seeded from the intact frontier and the
	// touched endpoints.
	mark := s.mark[:n]
	for i := range mark {
		mark[i] = markUnknown
	}
	mark[s.src] = markSafe
	roots := false
	for _, p := range s.touched {
		a, b := p[0], p[1]
		if s.prev[b] == a {
			mark[b] = markAffected
			roots = true
		} else if s.prev[a] == b {
			mark[a] = markAffected
			roots = true
		}
	}
	worst := s.m.Worst()
	if roots {
		for x := int32(0); int(x) < n; x++ {
			s.classify(x, mark)
		}
		for x := int32(0); int(x) < n; x++ {
			if mark[x] == markAffected {
				s.dist[x] = worst
				changed[x] = true
			}
		}
	}
	seeded := s.seeded[:n]
	for i := range seeded {
		seeded[i] = false
	}
	vheap := s.vheap[:0]
	vpush := func(x int32) {
		if !seeded[x] && s.dist[x] != worst {
			seeded[x] = true
			vheap = pushHeap(vheap, s.m, heapItem{value: s.dist[x], node: x})
		}
	}
	if roots {
		for x := int32(0); int(x) < n; x++ {
			if mark[x] != markAffected {
				continue
			}
			for _, arc := range s.g.Arcs(x) {
				if mark[arc.To] != markAffected {
					vpush(arc.To)
				}
			}
		}
	}
	for _, p := range s.touched {
		vpush(p[0])
		vpush(p[1])
	}
	s.valueWave(vheap, w, changed)

	// Wave 2 — hops and predecessors over the tight arcs. Every node whose
	// value changed, plus every touched endpoint, may have gained or lost
	// hop support; so may anything downstream of them in the predecessor
	// tree. Invalidate that closure and settle it again.
	for i := range mark {
		mark[i] = markUnknown
	}
	mark[s.src] = markSafe
	for x := int32(0); int(x) < n; x++ {
		if changed[x] && x != s.src {
			mark[x] = markAffected
		}
	}
	for _, p := range s.touched {
		if p[0] != s.src {
			mark[p[0]] = markAffected
		}
		if p[1] != s.src {
			mark[p[1]] = markAffected
		}
	}
	s.touched = s.touched[:0]
	for x := int32(0); int(x) < n; x++ {
		s.classify(x, mark)
	}
	for i := range seeded {
		seeded[i] = false
	}
	hheap := s.hheap[:0]
	for x := int32(0); int(x) < n; x++ {
		if mark[x] != markAffected {
			continue
		}
		s.hops[x] = hopInf
		s.prev[x] = -2
	}
	for x := int32(0); int(x) < n; x++ {
		if mark[x] != markAffected {
			continue
		}
		for _, arc := range s.g.Arcs(x) {
			z := arc.To
			if mark[z] != markAffected && !seeded[z] && (s.prev[z] != -2 || z == s.src) {
				seeded[z] = true
				hheap = pushHopHeap(hheap, hopItem{hops: s.hops[z], node: z})
			}
		}
	}
	s.hopWave(hheap, w)
	for x := int32(0); int(x) < n; x++ {
		if mark[x] == markAffected && s.prev[x] == -2 {
			s.hops[x] = 0 // unreachable: normalise
		}
	}
	return nil
}

// classify resolves x's affected/safe state by walking its prev chain to
// the first node with a known state, then unwinding. Unreached nodes and
// the source anchor safe chains.
func (s *SPF) classify(x int32, mark []uint8) {
	if mark[x] != markUnknown {
		return
	}
	chain := s.chain[:0]
	c := x
	var verdict uint8
	for {
		if mark[c] != markUnknown {
			verdict = mark[c]
			break
		}
		p := s.prev[c]
		if p < 0 {
			verdict = markSafe
			break
		}
		chain = append(chain, c)
		c = p
	}
	for _, y := range chain {
		mark[y] = verdict
	}
	s.chain = chain[:0]
}

// valueWave settles path values: a lazy-deletion best-first loop that
// re-pushes on strict improvement. Values only ever improve during the
// wave, the metric's Combine never improves a path, and a popped entry
// equal to the node's current value is final — so the wave converges to
// the unique value fixpoint from any correct seed set. changed records
// every node whose value was written.
func (s *SPF) valueWave(heap []heapItem, w []float64, changed []bool) {
	g, m := s.g, s.m
	worst := m.Worst()
	for len(heap) > 0 {
		var top heapItem
		top, heap = popHeap(heap, m)
		x := top.node
		if s.dist[x] == worst || top.value != s.dist[x] {
			continue // stale entry
		}
		for _, arc := range g.Arcs(x) {
			y := arc.To
			cand := m.Combine(s.dist[x], w[arc.Edge])
			if s.dist[y] == worst || m.Better(cand, s.dist[y]) {
				if y == s.src {
					continue
				}
				s.dist[y] = cand
				changed[y] = true
				heap = pushHeap(heap, m, heapItem{value: cand, node: y})
			}
		}
	}
	s.vheap = heap[:0]
}

// hopWave settles hop counts and canonical predecessors over the tight
// arcs (arcs whose extension reproduces the head's settled value). Hop
// extension is strictly monotone (+1), so this is plain dynamic BFS: every
// minimum-hop tight predecessor pops before its successors, improvements
// re-push, and equal-hop offers from smaller NodeIDs rewrite the
// predecessor in place.
func (s *SPF) hopWave(heap []hopItem, w []float64) {
	g, m := s.g, s.m
	worst := m.Worst()
	for len(heap) > 0 {
		var top hopItem
		top, heap = popHopHeap(heap)
		x := top.node
		if top.hops != s.hops[x] || s.prev[x] == -2 {
			continue // stale entry
		}
		for _, arc := range g.Arcs(x) {
			y := arc.To
			if y == s.src || s.dist[y] == worst {
				continue
			}
			if m.Combine(s.dist[x], w[arc.Edge]) != s.dist[y] {
				continue // not a tight arc
			}
			switch cand := s.hops[x] + 1; {
			case cand < s.hops[y]:
				s.hops[y] = cand
				s.prev[y] = x
				heap = pushHopHeap(heap, hopItem{hops: cand, node: y})
			case cand == s.hops[y] && g.ID(x) < g.ID(s.prev[y]):
				s.prev[y] = x
			}
		}
	}
	s.hheap = heap[:0]
}

// pushHopHeap inserts it into the min-heap ordered by hops.
func pushHopHeap(h []hopItem, it hopItem) []hopItem {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[i].hops >= h[parent].hops {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

// popHopHeap removes and returns the minimum entry.
func popHopHeap(h []hopItem) (hopItem, []hopItem) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h[l].hops < h[min].hops {
			min = l
		}
		if r < len(h) && h[r].hops < h[min].hops {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top, h
}

// FirstHops fills first[x] with the first hop after the source on the
// canonical path to x (-1 for the source and unreachable nodes), reusing
// the buffer when large enough. It resolves predecessor chains with
// memoised walks, so the pass is linear even though repair leaves no
// global pop order behind.
func (s *SPF) FirstHops(first []int32) []int32 {
	n := s.g.N()
	first = resizeInt32(first, n)
	const unset = -3
	for i := range first {
		first[i] = unset
	}
	first[s.src] = -1
	for x := int32(0); int(x) < n; x++ {
		if first[x] != unset {
			continue
		}
		chain := s.chain[:0]
		c := x
		for first[c] == unset {
			p := s.prev[c]
			if p == -2 {
				first[c] = -1
				break
			}
			if p == s.src {
				first[c] = c
				break
			}
			chain = append(chain, c)
			c = p
		}
		for i := len(chain) - 1; i >= 0; i-- {
			y := chain[i]
			if p := s.prev[y]; p == s.src {
				first[y] = y
			} else {
				first[y] = first[p]
			}
		}
		s.chain = chain[:0]
	}
	return first
}
