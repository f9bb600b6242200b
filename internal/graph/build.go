package graph

import "slices"

// EdgeAccum collects undirected weighted edges with first-writer-wins
// deduplication. It is the staging buffer for assembling a Graph from several
// per-source link tables that may disagree on a pair's weight: which weight
// wins is decided by the order of the Add calls, so callers must add in an
// order that is a pure function of their state, never of map iteration.
// Nothing downstream depends on the order the surviving edges are inserted in
// (searches break ties on NodeIDs, see ShortestPaths).
//
// Reset lets one accumulator be reused across rebuilds without reallocating;
// the zero value needs a Reset (or a first Add) before use.
type EdgeAccum struct {
	order [][2]NodeID
	w     map[[2]NodeID]float64
}

// Reset clears the accumulator, keeping its storage for reuse.
func (ea *EdgeAccum) Reset() {
	ea.order = ea.order[:0]
	if ea.w == nil {
		ea.w = make(map[[2]NodeID]float64)
	} else {
		clear(ea.w)
	}
}

// Add stages the undirected edge {a,b} with weight w. Self-loops are ignored;
// the first writer of a pair wins.
func (ea *EdgeAccum) Add(a, b NodeID, w float64) {
	if a == b {
		return
	}
	if a > b {
		a, b = b, a
	}
	if ea.w == nil {
		ea.w = make(map[[2]NodeID]float64)
	}
	key := [2]NodeID{a, b}
	if _, dup := ea.w[key]; dup {
		return
	}
	ea.w[key] = w
	ea.order = append(ea.order, key)
}

// Build inserts the accumulated edges into g, in accumulation order. Edges
// with an endpoint g does not have are skipped.
func (ea *EdgeAccum) Build(g *Graph, channel string) {
	for _, key := range ea.order {
		ia, ib := g.IndexOf(key[0]), g.IndexOf(key[1])
		if ia < 0 || ib < 0 {
			continue
		}
		e, err := g.AddEdge(ia, ib)
		if err != nil {
			continue
		}
		_ = g.SetWeight(channel, e, ea.w[key])
	}
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
// then Row/Edge for the links, then View. Like EdgeAccum the first writer of
// a pair wins and self-loops are dropped; an edge naming an id that was not
// added is skipped.
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

// Begin starts a new build, invalidating the previous view (and forgetting
// whatever a caller grew on its graph).
func (s *ViewScratch) Begin() {
	s.g.ids, s.g.index, s.g.labels = s.g.ids[:0], nil, nil
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
	n := len(g.ids)
	if cap(g.adj) < n {
		g.adj = make([][]Arc, n)
	}
	g.adj = g.adj[:n]
	s.work = resizeInt32(s.work, n+1)
	off := s.work
	clear(off)
	for _, e := range g.ends {
		off[e[0]+1]++
		off[e[1]+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	if cap(s.arcs) < 2*len(g.ends) {
		s.arcs = make([]Arc, 2*len(g.ends))
	}
	for i := range g.adj {
		// Full-capacity slices: an AddEdge on the built graph reallocates the
		// list instead of overwriting its neighbour's.
		g.adj[i] = s.arcs[off[i]:off[i]:off[i+1]]
	}
	for e, ends := range g.ends {
		a, b := ends[0], ends[1]
		g.adj[a] = append(g.adj[a], Arc{To: b, Edge: int32(e)})
		g.adj[b] = append(g.adj[b], Arc{To: a, Edge: int32(e)})
	}
	if len(g.weights) != 1 {
		g.weights = make([]weightChannel, 1)
	}
	g.weights[0] = weightChannel{channel, s.w}
	s.lv.init(g, u)
	s.lv.scratch = s
	return &s.lv, s.w
}
