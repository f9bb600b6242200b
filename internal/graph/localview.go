package graph

import (
	"cmp"
	"slices"
)

// Role classifies a node inside a local view.
type Role uint8

// Roles of nodes relative to the view's center u.
const (
	RoleOutside Role = iota
	RoleCenter       // u itself
	RoleOneHop       // N(u)
	RoleTwoHop       // N2(u)
)

// LocalView is the partial topology G_u = (V_u, E_u) node u knows after
// neighbor discovery (paper Sec. III-A):
//
//	V_u = {u} ∪ N(u) ∪ N2(u)
//	E_u = {(v,w) | v ∈ N(u) ∧ w ∈ V_u}
//
// i.e. all nodes within two hops and every edge incident to a 1-hop
// neighbor. Note that edges between two 2-hop neighbors are invisible (the
// paper's Fig. 2: u is not aware of link (v8,v9)).
type LocalView struct {
	G *Graph
	// U is the center node.
	U int32
	// N1 lists the 1-hop neighbors sorted by ascending NodeID, the
	// deterministic processing order of the selection algorithms.
	N1 []int32
	// N2 lists the 2-hop neighbors sorted by ascending NodeID.
	N2 []int32

	role   []Role  // per global node
	pos    []int32 // global node -> position in N1 or N2, meaningful for those roles only
	direct []int32 // N1 position -> edge index of the link from the center

	// scratch is the ViewScratch the view was taken from, nil for NewLocalView
	// views: the selection kernels take their working storage from it.
	scratch *ViewScratch
}

// NewLocalView computes the local view of u in g.
func NewLocalView(g *Graph, u int32) *LocalView {
	lv := new(LocalView)
	lv.init(g, u)
	return lv
}

// init computes the view of u in g into lv, reusing lv's storage.
func (lv *LocalView) init(g *Graph, u int32) {
	lv.G, lv.U = g, u
	lv.role = append(lv.role[:0], make([]Role, g.N())...)
	lv.pos = resize(lv.pos, g.N())
	lv.N1, lv.N2 = lv.N1[:0], lv.N2[:0]
	lv.role[u] = RoleCenter
	for _, arc := range g.Arcs(u) {
		lv.role[arc.To] = RoleOneHop
		lv.N1 = append(lv.N1, arc.To)
	}
	for _, n := range lv.N1 {
		for _, arc := range g.Arcs(n) {
			if lv.role[arc.To] == RoleOutside {
				lv.role[arc.To] = RoleTwoHop
				lv.N2 = append(lv.N2, arc.To)
			}
		}
	}
	for _, s := range [2][]int32{lv.N1, lv.N2} {
		if g.index == nil {
			slices.Sort(s) // the ids ascend with the index
		} else {
			slices.SortFunc(s, func(a, b int32) int { return cmp.Compare(g.ids[a], g.ids[b]) })
		}
		for i, x := range s {
			lv.pos[x] = int32(i)
		}
	}
	lv.direct = resize(lv.direct, len(lv.N1))
	for _, arc := range g.Arcs(u) {
		lv.direct[lv.pos[arc.To]] = arc.Edge
	}
}

// Role returns the role of global node x in the view.
func (lv *LocalView) Role(x int32) Role { return lv.role[x] }

// InView reports whether x belongs to V_u.
func (lv *LocalView) InView(x int32) bool { return lv.role[x] != RoleOutside }

// N1Index returns the position of x in N1, or -1 if x is not a 1-hop
// neighbor.
func (lv *LocalView) N1Index(x int32) int32 {
	if lv.role[x] != RoleOneHop {
		return -1
	}
	return lv.pos[x]
}

// N2Index returns the position of x in N2, or -1 if x is not a 2-hop
// neighbor.
func (lv *LocalView) N2Index(x int32) int32 {
	if lv.role[x] != RoleTwoHop {
		return -1
	}
	return lv.pos[x]
}

// DirectEdge returns the edge index of the link joining the center and
// N1[i].
func (lv *LocalView) DirectEdge(i int) int32 { return lv.direct[i] }

// Int32Scratch returns n zeroed int32s of working storage for an algorithm
// running on the view: the ViewScratch's when the view was taken from one
// (valid until the next call on that scratch), freshly allocated otherwise.
func (lv *LocalView) Int32Scratch(n int) []int32 {
	if lv.scratch == nil {
		return make([]int32, n)
	}
	lv.scratch.work = resize(lv.scratch.work, n)
	clear(lv.scratch.work)
	return lv.scratch.work
}

// HasViewEdge reports whether the arc tail->head is part of E_u: the edge
// must touch a 1-hop neighbor, and when the center is an endpoint the other
// endpoint is necessarily a 1-hop neighbor.
func (lv *LocalView) HasViewEdge(tail, head int32) bool {
	if !lv.InView(tail) || !lv.InView(head) {
		return false
	}
	return lv.role[tail] == RoleOneHop || lv.role[head] == RoleOneHop
}

// Targets returns the selection targets of the paper's Algorithms 1 and 2:
// first every 1-hop neighbor, then every 2-hop neighbor, each sorted by ID.
// The returned slice is freshly allocated.
func (lv *LocalView) Targets() []int32 {
	out := make([]int32, 0, len(lv.N1)+len(lv.N2))
	out = append(out, lv.N1...)
	out = append(out, lv.N2...)
	return out
}

// ViewEdges appends to dst every edge index of E_u and returns it. Each edge
// appears once.
func (lv *LocalView) ViewEdges(dst []int32) []int32 {
	g := lv.G
	for _, n := range lv.N1 {
		for _, arc := range g.Arcs(n) {
			if !lv.InView(arc.To) {
				continue
			}
			// Emit each edge once: from the 1-hop endpoint with the
			// smaller node index, or from the 1-hop endpoint when the
			// other side is not 1-hop.
			if lv.role[arc.To] == RoleOneHop && arc.To < n {
				continue
			}
			dst = append(dst, arc.Edge)
		}
	}
	return dst
}
