// Package graph provides the graph substrate of the reproduction: a compact
// undirected weighted graph, the two-hop local views G_u the paper's
// algorithms operate on, generalized Dijkstra searches for additive and
// concave metrics, exact first-hop-set (fP) computation and relative
// neighborhood graph reduction. The brute-force path oracles the tests hold
// these to live in the package's test files.
package graph

import (
	"fmt"
	"math/rand"
	"slices"

	"qolsr/internal/metric"
)

// NodeID is the external identifier of a node. The paper's algorithms break
// ties on identifiers ("in case of ties, the smallest id is preferred"), so
// IDs are part of the algorithmic contract, not just labels.
type NodeID int64

// Arc is one direction of an undirected edge as stored in adjacency lists.
type Arc struct {
	// To is the head node of the arc.
	To int32
	// Edge is the index of the underlying undirected edge, usable with
	// Weights and EdgeEndpoints.
	Edge int32
}

// Graph is an undirected graph with multi-channel edge weights. Nodes are
// dense indices 0..N()-1 carrying external NodeIDs; edges are dense indices
// 0..M()-1. The zero value is not usable; construct with New, NewWithIDs or
// FromEdges.
type Graph struct {
	ids    []NodeID
	labels []string
	adj    [][]Arc
	ends   [][2]int32
	// identity is set while every node's ID equals its index (graph.New,
	// and FromEdges on ids 0..n-1): IndexOf is then a bounds check, no
	// storage. Otherwise a NewWithIDs graph carries its id→index map in
	// index; a laid-out graph (FromEdges, ViewScratch) has neither, keeps
	// its ids strictly ascending and IndexOf binary-searches them. The node
	// set is fixed at construction, so the map is never written afterwards.
	identity bool
	index    map[NodeID]int32
	// weights holds the weight channels in creation order — one or two in
	// practice, so a name lookup is a short scan and AddEdge's per-channel
	// append touches no map.
	weights []weightChannel
}

// weightChannel is one named per-edge weight slice.
type weightChannel struct {
	name string
	w    []float64
}

// channel returns the named channel, nil when absent.
func (g *Graph) channel(name string) *weightChannel {
	for i := range g.weights {
		if g.weights[i].name == name {
			return &g.weights[i]
		}
	}
	return nil
}

// New returns a graph of n isolated nodes whose IDs are their indices.
func New(n int) *Graph {
	g, err := NewWithIDs(IndexIDs(n))
	if err != nil {
		// Sequential IDs are always unique; this cannot happen.
		panic(err)
	}
	return g
}

// IndexIDs returns the ids 0..n-1, under which every node's id is its index.
func IndexIDs(n int) []NodeID {
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(i)
	}
	return ids
}

// NewWithIDs returns a graph whose node i carries ids[i]. IDs must be unique
// since the selection algorithms use them as total tie-breakers.
func NewWithIDs(ids []NodeID) (*Graph, error) {
	index := make(map[NodeID]int32, len(ids))
	identity := true
	for i, id := range ids {
		if _, dup := index[id]; dup {
			return nil, fmt.Errorf("graph: duplicate node id %d at index %d", id, i)
		}
		index[id] = int32(i)
		if id != NodeID(i) {
			identity = false
		}
	}
	if identity {
		index = nil // IndexOf is a bounds check; no reverse storage needed
	}
	return &Graph{
		ids:      append([]NodeID(nil), ids...),
		adj:      make([][]Arc, len(ids)),
		identity: identity,
		index:    index,
	}, nil
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.ids) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.ends) }

// ID returns the external identifier of node x.
func (g *Graph) ID(x int32) NodeID { return g.ids[x] }

// IndexOf returns the node index carrying id, or -1. Identity graphs answer
// with a bounds check and other NewWithIDs graphs through their id map, both
// O(1); any other laid-out graph (FromEdges, ViewScratch) keeps no map and
// binary-searches its ascending ids in O(log N).
func (g *Graph) IndexOf(id NodeID) int32 {
	switch {
	case g.identity:
		if uint64(id) < uint64(len(g.ids)) {
			return int32(id)
		}
	case g.index != nil:
		if i, ok := g.index[id]; ok {
			return i
		}
	default:
		if i, ok := slices.BinarySearch(g.ids, id); ok {
			return int32(i)
		}
	}
	return -1
}

// SetLabel attaches a human-readable label to node x, used by the DOT writer
// and the worked-example fixtures.
func (g *Graph) SetLabel(x int32, label string) {
	if g.labels == nil {
		g.labels = make([]string, g.N())
	}
	g.labels[x] = label
}

// Label returns the label of node x, defaulting to "v<id>".
func (g *Graph) Label(x int32) string {
	if g.labels != nil && g.labels[x] != "" {
		return g.labels[x]
	}
	return fmt.Sprintf("v%d", g.ids[x])
}

// AddEdge inserts the undirected edge {a,b} and returns its edge index. It
// rejects self-loops, duplicate edges and out-of-range endpoints.
func (g *Graph) AddEdge(a, b int32) (int, error) {
	if a < 0 || int(a) >= g.N() || b < 0 || int(b) >= g.N() {
		return 0, fmt.Errorf("graph: edge endpoints (%d,%d) out of range [0,%d)", a, b, g.N())
	}
	if a == b {
		return 0, fmt.Errorf("graph: self-loop on node %d", a)
	}
	if _, ok := g.EdgeBetween(a, b); ok {
		return 0, fmt.Errorf("graph: duplicate edge {%d,%d}", a, b)
	}
	e := int32(len(g.ends))
	g.ends = append(g.ends, [2]int32{a, b})
	g.adj[a] = append(g.adj[a], Arc{To: b, Edge: e})
	g.adj[b] = append(g.adj[b], Arc{To: a, Edge: e})
	for i := range g.weights {
		g.weights[i].w = append(g.weights[i].w, 0)
	}
	return int(e), nil
}

// normalise gives a channel created before edges were added its full length.
func (c *weightChannel) normalise(m int) {
	if len(c.w) != m {
		grown := make([]float64, m)
		copy(grown, c.w)
		c.w = grown
	}
}

// EdgeBetween returns the edge index joining a and b, if any.
func (g *Graph) EdgeBetween(a, b int32) (int, bool) {
	// Scan the smaller adjacency list.
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, arc := range g.adj[a] {
		if arc.To == b {
			return int(arc.Edge), true
		}
	}
	return 0, false
}

// EdgeEndpoints returns the two endpoints of edge e.
func (g *Graph) EdgeEndpoints(e int) (int32, int32) {
	return g.ends[e][0], g.ends[e][1]
}

// Arcs returns the adjacency list of x. The returned slice is owned by the
// graph and must not be modified.
func (g *Graph) Arcs(x int32) []Arc { return g.adj[x] }

// Degree returns the number of neighbors of x.
func (g *Graph) Degree(x int32) int { return len(g.adj[x]) }

// SetWeight sets the weight of edge e on the named channel, creating the
// channel on first use.
func (g *Graph) SetWeight(channel string, e int, w float64) error {
	if e < 0 || e >= g.M() {
		return fmt.Errorf("graph: edge %d out of range [0,%d)", e, g.M())
	}
	c := g.channel(channel)
	if c == nil {
		g.weights = append(g.weights, weightChannel{channel, make([]float64, g.M())})
		c = &g.weights[len(g.weights)-1]
	}
	c.w[e] = w
	return nil
}

// Weights returns the per-edge weight slice of the named channel, indexed by
// edge index. The slice is owned by the graph.
func (g *Graph) Weights(channel string) ([]float64, error) {
	c := g.channel(channel)
	if c == nil {
		return nil, fmt.Errorf("graph: unknown weight channel %q", channel)
	}
	c.normalise(g.M())
	return c.w, nil
}

// AssignUniformWeights draws an independent weight from iv for every edge on
// the named channel, the paper's link-weight model (Sec. IV-A).
func (g *Graph) AssignUniformWeights(channel string, iv metric.Interval, rng *rand.Rand) error {
	if err := iv.Validate(); err != nil {
		return err
	}
	ws := make([]float64, g.M())
	for e := range ws {
		ws[e] = iv.Draw(rng)
	}
	if c := g.channel(channel); c != nil {
		c.w = ws
	} else {
		g.weights = append(g.weights, weightChannel{channel, ws})
	}
	return nil
}

// Validate checks structural invariants: adjacency symmetry and weight
// channel lengths. It is used by tests and by the simulator after topology
// reconstruction.
func (g *Graph) Validate() error {
	for x := range g.adj {
		for _, arc := range g.adj[x] {
			a, b := g.ends[arc.Edge][0], g.ends[arc.Edge][1]
			if !(a == int32(x) && b == arc.To) && !(b == int32(x) && a == arc.To) {
				return fmt.Errorf("graph: arc %d->%d does not match edge %d endpoints (%d,%d)",
					x, arc.To, arc.Edge, a, b)
			}
		}
	}
	for _, c := range g.weights {
		if len(c.w) != g.M() {
			return fmt.Errorf("graph: channel %q has %d weights for %d edges", c.name, len(c.w), g.M())
		}
	}
	return nil
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		ids:      append([]NodeID(nil), g.ids...),
		adj:      make([][]Arc, len(g.adj)),
		ends:     append([][2]int32(nil), g.ends...),
		identity: g.identity,
		index:    g.index, // never written after construction: shared
		weights:  make([]weightChannel, len(g.weights)),
	}
	if g.labels != nil {
		c.labels = append([]string(nil), g.labels...)
	}
	for i := range g.adj {
		c.adj[i] = append([]Arc(nil), g.adj[i]...)
	}
	for i, ch := range g.weights {
		c.weights[i] = weightChannel{ch.name, append([]float64(nil), ch.w...)}
	}
	return c
}
