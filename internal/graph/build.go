package graph

import (
	"math/bits"
	"slices"
)

// FromEdges returns the graph on ids, which must be strictly ascending, whose
// edge e joins the node indices ends[e] with weight w[e] on the named channel.
// The graph takes all three slices over and lays its adjacency out in one
// arena (see layout). Its node set is fixed: it keeps no id map, and IndexOf
// is a bounds check when the ids are 0..n-1 and a binary search otherwise.
func FromEdges(ids []NodeID, ends [][2]int32, channel string, w []float64) *Graph {
	return new(Layout).Lay(ids, ends, channel, w)
}

// Layout is reusable storage graphs are laid out in: the Graph, its
// adjacency table, its arc arena and the offsets of the counting pass. A warm
// Layout lays a graph out without allocating. It holds one graph at a time:
// the graph Lay returns is valid until the next Lay. The zero value is ready;
// a Layout is not safe for concurrent use.
type Layout struct {
	g    Graph
	arcs []Arc
	off  []int32
}

// Lay is FromEdges in l's storage.
func (l *Layout) Lay(ids []NodeID, ends [][2]int32, channel string, w []float64) *Graph {
	g := &l.g
	g.ids, g.ends, g.labels, g.index = ids, ends, nil, nil
	g.identity = len(ids) == 0 || ids[0] == 0 && ids[len(ids)-1] == NodeID(len(ids)-1)
	if len(g.weights) != 1 {
		g.weights = make([]weightChannel, 1)
	}
	g.weights[0] = weightChannel{channel, w}
	l.off = resize(l.off, len(ids)+1)
	l.arcs = g.layout(l.arcs, l.off)
	return g
}

// IDIndex numbers a set of node ids in ascending order, the order FromEdges
// and ViewScratch.Begin take them in. Ids inside [0, window) go through a
// bitset and a position table, so numbering costs O(ids + window/64) and a
// lookup is one array read; the others go through a sorted list and a binary
// search. A round is Reset, Note for every id (repeats allowed), Seal, then At
// for any noted id. The zero value is ready; an IDIndex is not safe for
// concurrent use.
type IDIndex struct {
	mark         []uint64 // per in-window id: noted
	index        []int32  // per noted in-window id: its position, once sealed
	outside, ids []NodeID
}

// Reset starts a round over the id window [0, window).
func (x *IDIndex) Reset(window int) {
	x.mark = append(x.mark[:0], make([]uint64, (window+63)/64)...)
	if cap(x.index) < window {
		x.index = make([]int32, window)
	}
	x.index, x.outside = x.index[:window], x.outside[:0]
}

// Note adds id to the set.
func (x *IDIndex) Note(id NodeID) {
	if uint64(id) < uint64(len(x.index)) {
		x.mark[id>>6] |= 1 << (uint64(id) & 63)
	} else {
		x.outside = append(x.outside, id)
	}
}

// Seal numbers the noted ids and returns them ascending and unique. The
// slice is the index's own storage, valid until the next Seal.
func (x *IDIndex) Seal() []NodeID {
	slices.Sort(x.outside)
	x.outside = slices.Compact(x.outside)
	below, _ := slices.BinarySearch(x.outside, 0)
	n := len(x.outside)
	for _, word := range x.mark {
		n += bits.OnesCount64(word)
	}
	ids := append(slices.Grow(x.ids[:0], n), x.outside[:below]...)
	for i, word := range x.mark {
		for ; word != 0; word &= word - 1 {
			id := i<<6 + bits.TrailingZeros64(word)
			x.index[id] = int32(len(ids))
			ids = append(ids, NodeID(id))
		}
	}
	x.ids = append(ids, x.outside[below:]...)
	return x.ids
}

// At returns the position of a noted id in the sealed order.
func (x *IDIndex) At(id NodeID) int32 {
	if uint64(id) < uint64(len(x.index)) {
		return x.index[id]
	}
	i, _ := slices.BinarySearch(x.ids, id)
	return int32(i)
}

// layout lays g.ends out as adjacency lists, in edge order as AddEdge would
// have, in one arena of 2·M arcs — arena itself when it has room — and
// returns the arena; off is scratch of N+1 entries. Every list is a
// full-capacity slice of the arena, so an AddEdge on the laid-out graph
// reallocates the list it grows instead of overwriting its neighbour's.
func (g *Graph) layout(arena []Arc, off []int32) []Arc {
	n := len(g.ids)
	if cap(g.adj) < n {
		g.adj = make([][]Arc, n)
	}
	g.adj = g.adj[:n]
	clear(off)
	for _, e := range g.ends {
		off[e[0]+1]++
		off[e[1]+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	if cap(arena) < 2*len(g.ends) {
		arena = make([]Arc, 2*len(g.ends))
	}
	for i := range g.adj {
		g.adj[i] = arena[off[i]:off[i]:off[i+1]]
	}
	for e, ends := range g.ends {
		a, b := ends[0], ends[1]
		g.adj[a] = append(g.adj[a], Arc{To: b, Edge: int32(e)})
		g.adj[b] = append(g.adj[b], Arc{To: a, Edge: int32(e)})
	}
	return arena
}

// ViewScratch is the reusable storage a two-hop view is built and selected on:
// the Graph and LocalView that View returns live in it, and so do the working
// buffers of the kernels run on that view (ComputeFirstHops, ReduceRNG, and
// through LocalView.Int32Scratch the MPR heuristics and topology filtering),
// so a warm scratch rebuilds a view and re-runs selection without
// allocating. It holds one view at a time: everything handed out is valid
// until the next Begin. The zero value is ready; a ViewScratch is not safe
// for concurrent use.
//
// A build is Begin with the view's node ids, which must be ascending and
// unique, then Edge for the links by node index (an id's position in that
// list), then View. The first writer of a pair wins and self-loops are
// dropped. The pair dedup is an n×n bit-matrix, sized for a two-hop view, not
// for a node's whole routing graph.
type ViewScratch struct {
	lay  Layout
	lv   LocalView
	ids  []NodeID
	ends [][2]int32
	w    []float64 // weight per staged edge, the built graph's only channel
	seen []uint64  // n×n pair bit-matrix: first-writer-wins dedup

	// Working storage of the selection kernels (firsthops.go, Int32Scratch).
	sp   Scratch // additive kernel's Dijkstra
	fh   FirstHops
	work []int32

	// The concave sweep's state (firstHopsConcave): E_u, its sort keys and
	// the radix sort's second buffer, the value per node, and per union-find
	// component the active-hop bitset and the pending-target list.
	edges        []concaveEdge
	keys, keyBuf []uint64
	dist         []float64
	uf           UnionFind
	active       []uint64
	pend, next   []int32

	// ReduceRNG's state: E_u, the verdict per edge, and the witness
	// weights with their stamps.
	rngEdges, rngStamp []int32
	keep               []bool
	rngW               []float64
}

// Begin starts a new build on the nodes with the given ids, ascending and
// unique, and invalidates the previous view. The view's graph takes the ids
// over, as FromEdges does: they must not change while it is in use.
func (s *ViewScratch) Begin(ids []NodeID) {
	n := len(ids)
	s.ids = ids
	s.seen = append(s.seen[:0], make([]uint64, (n*n+63)/64)...)
	s.ends, s.w = s.ends[:0], s.w[:0]
}

// Edge stages the undirected edge joining the nodes at indices a and b.
func (s *ViewScratch) Edge(a, b int32, w float64) {
	if a == b {
		return
	}
	if a > b {
		a, b = b, a
	}
	bit := int(a)*len(s.ids) + int(b)
	if s.seen[bit/64]&(1<<(bit%64)) != 0 {
		return
	}
	s.seen[bit/64] |= 1 << (bit % 64)
	s.ends = append(s.ends, [2]int32{a, b})
	s.w = append(s.w, w)
}

// View lays the staged edges out as adjacency lists (in staging order, as
// AddEdge would have) with their weights on the named channel, and returns
// the local view of the node at index center with that channel's weight
// slice.
func (s *ViewScratch) View(center int32, channel string) (*LocalView, []float64) {
	s.lv.init(s.lay.Lay(s.ids, s.ends, channel, s.w), center)
	s.lv.scratch = s
	return &s.lv, s.w
}
