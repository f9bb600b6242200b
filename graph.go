package qolsr

// Graph substrate and network generation: the weighted unit-disk topologies
// every selection algorithm and experiment runs on.

import (
	"math/rand"

	"qolsr/internal/geom"
	"qolsr/internal/graph"
	"qolsr/internal/netgen"
)

type (
	// Graph is an undirected graph with multi-channel edge weights.
	Graph = graph.Graph
	// NodeID is a node's external identifier, used by the selection
	// tie-breaks.
	NodeID = graph.NodeID
	// LocalView is the two-hop partial topology G_u a node operates on.
	LocalView = graph.LocalView
	// FirstHops holds optimal path values and fP(u,v) first-hop sets.
	FirstHops = graph.FirstHops
	// ShortestPaths is a Dijkstra result.
	ShortestPaths = graph.ShortestPaths
	// DOTOptions controls Graphviz rendering.
	DOTOptions = graph.DOTOptions
)

// NewGraph returns a graph of n isolated nodes with sequential IDs.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewGraphWithIDs returns a graph whose nodes carry the given unique IDs.
func NewGraphWithIDs(ids []NodeID) (*Graph, error) { return graph.NewWithIDs(ids) }

// NewLocalView computes the two-hop local view of u in g.
func NewLocalView(g *Graph, u int32) *LocalView { return graph.NewLocalView(g, u) }

// Dijkstra computes optimal path values from src under m (see
// graph.Dijkstra for the view/exclude semantics).
func Dijkstra(g *Graph, m Metric, w []float64, src int32, view *LocalView, exclude int32) *ShortestPaths {
	return graph.Dijkstra(g, m, w, src, view, exclude)
}

// ComputeFirstHops computes B̃W/D̃ values and fP(u,v) sets for a view.
func ComputeFirstHops(view *LocalView, m Metric, w []float64) (*FirstHops, error) {
	return graph.ComputeFirstHops(view, m, w)
}

// DijkstraLex computes lexicographic two-criterion optimal paths from src
// (e.g. widest, then energy-cheapest) over the weight channels lex names.
// It is graph.Scratch.DijkstraLex, the one search kernel under a
// (primary, secondary) key; a graph that lacks either channel is an error.
func DijkstraLex(g *Graph, lex Lexicographic, src int32, view *LocalView, exclude int32) (*LexSearch, error) {
	wp, ws, err := graph.LexWeights(g, lex)
	if err != nil {
		return nil, err
	}
	sp := new(graph.Scratch).DijkstraLex(g, lex, wp, ws, src, view, exclude)
	ls := &LexSearch{Source: src, Cost: make([]LexCost, g.N()), Reached: make([]bool, g.N()), sp: sp}
	for x := range ls.Cost {
		ls.Cost[x] = LexCost{Primary: sp.Dist[x], Secondary: sp.Second[x]}
		ls.Reached[x] = sp.Reachable(int32(x))
	}
	return ls, nil
}

// LexSearch is the result of DijkstraLex.
type LexSearch struct {
	// Source is the search origin.
	Source int32
	// Cost maps each node to its lexicographic path cost from Source
	// (each level's Worst when unreached).
	Cost []LexCost
	// Reached reports, per node, whether the search reached it.
	Reached []bool

	sp *graph.ShortestPaths
}

// PathTo returns one optimal path to t (source first), or nil when t was not
// reached.
func (ls *LexSearch) PathTo(t int32) []int32 { return ls.sp.PathTo(t) }

// WriteDOT renders g in Graphviz DOT form.
var WriteDOT = graph.WriteDOT

// Deployment and network generation.
type (
	// Deployment is a Poisson point process deployment.
	Deployment = geom.Deployment
	// Field is the deployment area.
	Field = geom.Field
	// Point is a node position.
	Point = geom.Point
)

var (
	// PaperDeployment returns the paper's 1000×1000, R=100 deployment at
	// a target mean degree.
	PaperDeployment = geom.PaperDeployment
	// BuildNetwork samples a deployment into a weighted unit-disk graph.
	BuildNetwork = netgen.Build
	// NetworkFromPoints builds the weighted unit-disk graph of fixed
	// positions.
	NetworkFromPoints = netgen.FromPoints
	// PickConnectedPair draws a random connected (source, destination).
	PickConnectedPair = netgen.PickConnectedPair
)

// UniformWeights draws i.i.d. weights from iv onto a graph channel.
func UniformWeights(g *Graph, channel string, iv Interval, rng *rand.Rand) error {
	return g.AssignUniformWeights(channel, iv, rng)
}
