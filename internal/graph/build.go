package graph

import "slices"

// FromEdges returns the graph on ids, which must be strictly ascending, whose
// edge e joins the node indices ends[e] with weight w[e] on the named channel.
// The graph takes all three slices over and lays its adjacency out in one
// arena (see layout). Its node set is fixed: it keeps no id map and IndexOf
// binary-searches the ids.
func FromEdges(ids []NodeID, ends [][2]int32, channel string, w []float64) *Graph {
	g := &Graph{ids: ids, ends: ends, weights: []weightChannel{{channel, w}}}
	g.layout(nil, make([]int32, len(ids)+1))
	return g
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
// buffers of the kernels run on that view (ComputeFirstHops, and through
// LocalView.Int32Scratch the MPR heuristics), so a warm scratch rebuilds a
// view and re-runs selection without allocating. It holds one view at a time:
// everything handed out is valid until the next Begin. The zero value is
// ready; a ViewScratch is not safe for concurrent use.
//
// A build is Begin, AddID for every node (any order, repeats allowed), Seal,
// then Row/Edge for the links, then View. The first writer of a pair wins and
// self-loops are dropped; an edge naming an id that was not added is skipped.
// The pair dedup is an n×n bit-matrix, sized for a two-hop view, not for a
// node's whole routing graph.
type ViewScratch struct {
	g    Graph
	lv   LocalView
	w    []float64 // weight per staged edge, the built graph's only channel
	arcs []Arc     // CSR arena g.adj slices into
	seen []uint64  // n×n pair bit-matrix: first-writer-wins dedup
	from int32     // current Row's node
	cur  int       // forward lookup cursor into g.ids (see find)

	// Working storage of the selection kernels (firsthops.go, Int32Scratch).
	sp   Scratch // additive kernel's Dijkstra
	fh   FirstHops
	work []int32

	// The concave sweep's state (firstHopsConcave): E_u sorted, the value per
	// node, and per union-find component the active-hop bitset and the
	// pending-target list.
	edges      []concaveEdge
	dist       []float64
	uf         UnionFind
	active     []uint64
	pend, next []int32
}

// Begin starts a new build, invalidating the previous view.
func (s *ViewScratch) Begin() {
	s.g.ids, s.g.labels = s.g.ids[:0], nil
}

// AddID adds a node.
func (s *ViewScratch) AddID(id NodeID) { s.g.ids = append(s.g.ids, id) }

// Seal closes the node set: ids are sorted, so index order is ID order.
func (s *ViewScratch) Seal() {
	slices.Sort(s.g.ids)
	s.g.ids = slices.Compact(s.g.ids)
	n := len(s.g.ids)
	s.seen = append(s.seen[:0], make([]uint64, (n*n+63)/64)...)
	s.g.ends, s.w = s.g.ends[:0], s.w[:0]
	s.from, s.cur = -1, 0
}

// find returns id's index or -1. Lookups made in ascending id order — the
// link tables views are built from are sorted — share one forward walk over
// the ids; a step backwards restarts it.
func (s *ViewScratch) find(id NodeID) int32 {
	ids := s.g.ids
	if s.cur < len(ids) && ids[s.cur] > id {
		s.cur = 0
	}
	for s.cur < len(ids) && ids[s.cur] < id {
		s.cur++
	}
	if s.cur < len(ids) && ids[s.cur] == id {
		return int32(s.cur)
	}
	return -1
}

// Row makes from the near end of the Edge calls that follow.
func (s *ViewScratch) Row(from NodeID) { s.from = s.find(from) }

// Edge stages the undirected edge joining the current Row's node and to.
func (s *ViewScratch) Edge(to NodeID, w float64) {
	a, b := s.from, s.find(to)
	if a < 0 || b < 0 || a == b {
		return
	}
	if a > b {
		a, b = b, a
	}
	bit := int(a)*len(s.g.ids) + int(b)
	if s.seen[bit/64]&(1<<(bit%64)) != 0 {
		return
	}
	s.seen[bit/64] |= 1 << (bit % 64)
	s.g.ends = append(s.g.ends, [2]int32{a, b})
	s.w = append(s.w, w)
}

// View lays the staged edges out as adjacency lists (in staging order, as
// AddEdge would have) with their weights on the named channel, and returns
// the local view of center with that channel's weight slice; nil when center
// is not a node.
func (s *ViewScratch) View(center NodeID, channel string) (*LocalView, []float64) {
	g := &s.g
	u := s.find(center)
	if u < 0 {
		return nil, nil
	}
	s.work = resizeInt32(s.work, len(g.ids)+1)
	s.arcs = g.layout(s.arcs, s.work)
	if len(g.weights) != 1 {
		g.weights = make([]weightChannel, 1)
	}
	g.weights[0] = weightChannel{channel, s.w}
	s.lv.init(g, u)
	s.lv.scratch = s
	return &s.lv, s.w
}
