package olsr

import (
	"math/rand"
	"slices"
	"testing"

	"qolsr/internal/core"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/mpr"
)

// referenceLocalView is the plain construction buildLocalView replaced, kept
// as the oracle: the view's id set collected inline, each pair's weight from
// resolvePair (the tables under test hold no TC rows), NewWithIDs, AddEdge,
// NewLocalView.
func referenceLocalView(t *testing.T, n *Node) (*graph.LocalView, []float64) {
	t.Helper()
	if n.links.len() == 0 {
		return nil, nil
	}
	ids := []graph.NodeID{graph.NodeID(n.ID)}
	for _, id := range n.links.keys {
		ids = append(ids, graph.NodeID(id))
	}
	for _, tbl := range n.neighbors.vals {
		for _, l := range tbl.adv {
			ids = append(ids, graph.NodeID(l.Neighbor))
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	g, err := graph.NewWithIDs(ids)
	if err != nil {
		t.Fatal(err)
	}
	ch := n.cfg.Metric.Name()
	for a := range ids {
		for b := a + 1; b < len(ids); b++ {
			if w, ok := n.resolvePair(int64(ids[a]), int64(ids[b])); ok {
				if err := g.SetWeight(ch, mustAddEdge(g, int32(a), int32(b)), w); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	w, err := g.Weights(ch)
	if err != nil {
		w = nil // no edges at all
	}
	return graph.NewLocalView(g, g.IndexOf(graph.NodeID(n.ID))), w
}

// neighborhood is a node's tables as a test writes them down.
type neighborhood struct {
	self  int64
	links []LinkInfo           // own links
	adv   map[int64][]LinkInfo // HELLO tables heard, by origin
}

// nodeFor loads nb into a fresh node under m. The host senses the links, so
// a neighbour's advert about the node never overwrites the own-link weight.
func nodeFor(t *testing.T, nb neighborhood, m metric.Metric) *Node {
	t.Helper()
	cfg := DefaultConfig(m)
	cfg.LinkSensing = SenseHost
	n, err := NewNode(nb.self, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range nb.links {
		n.UpdateLink(l.Neighbor, l.Weight, 0)
	}
	for origin, adv := range nb.adv {
		n.HandleHello(&Hello{Origin: origin, Links: adv}, 0)
	}
	return n
}

func idsOfNodes(g *graph.Graph, xs []int32) []graph.NodeID {
	out := make([]graph.NodeID, len(xs))
	for i, x := range xs {
		out[i] = g.ID(x)
	}
	return out
}

// compareViews checks that the scratch-built view and the reference agree on
// structure and on everything selected from them.
func compareViews(t *testing.T, n *Node) {
	t.Helper()
	ref, rw := referenceLocalView(t, n)
	lv, w := n.buildLocalView()
	if (lv == nil) != (ref == nil) {
		t.Fatalf("scratch view nil=%v, reference nil=%v", lv == nil, ref == nil)
	}
	if lv == nil {
		return
	}
	g, rg := lv.G, ref.G
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N() != rg.N() || g.M() != rg.M() {
		t.Fatalf("scratch graph %d nodes %d edges, reference %d nodes %d edges", g.N(), g.M(), rg.N(), rg.M())
	}
	for x := int32(0); int(x) < g.N(); x++ {
		if g.ID(x) != rg.ID(x) || lv.Role(x) != ref.Role(x) {
			t.Fatalf("node %d: id %d role %v, reference id %d role %v", x, g.ID(x), lv.Role(x), rg.ID(x), ref.Role(x))
		}
	}
	if g.ID(lv.U) != rg.ID(ref.U) || !slices.Equal(lv.N1, ref.N1) || !slices.Equal(lv.N2, ref.N2) {
		t.Fatalf("center/N1/N2 differ: %d %v %v, reference %d %v %v", lv.U, lv.N1, lv.N2, ref.U, ref.N1, ref.N2)
	}
	for e := 0; e < g.M(); e++ {
		a, b := g.EdgeEndpoints(e)
		re, ok := rg.EdgeBetween(a, b)
		if !ok || w[e] != rw[re] {
			t.Fatalf("edge %d-%d weight %v: reference has it %v at %v", g.ID(a), g.ID(b), w[e], ok, rw[re])
		}
	}

	m := n.cfg.Metric
	fast, err := graph.ComputeFirstHops(lv, m, w)
	if err != nil {
		t.Fatal(err)
	}
	oracle := graph.FirstHopsReference(ref, m, rw)
	for x := int32(0); int(x) < g.N(); x++ {
		same := fast.Count(x) == oracle.Count(x)
		fast.ForEach(x, func(i int32) { same = same && oracle.Contains(x, i) })
		if !same {
			t.Fatalf("fP(%d): fast on scratch (%d members) differs from reference (%d)", g.ID(x), fast.Count(x), oracle.Count(x))
		}
	}
	selectors := []core.Selector{
		core.FNBP{}, core.FNBP{LoopFix: core.LoopFixAdjacent}, core.FNBP{LoopFix: core.LoopFixOff},
		core.TopologyFilter{},
		core.QOLSRAdapter{Heuristic: mpr.Greedy}, core.QOLSRAdapter{Heuristic: mpr.QOLSR1},
		core.QOLSRAdapter{Heuristic: mpr.QOLSR2}, core.QOLSRAdapter{Heuristic: mpr.MinCover},
	}
	for _, sel := range selectors {
		got, err := sel.Select(lv, m, w)
		if err != nil {
			t.Fatalf("%s on scratch view: %v", sel.Name(), err)
		}
		want, err := sel.Select(ref, m, rw)
		if err != nil {
			t.Fatalf("%s on reference view: %v", sel.Name(), err)
		}
		if !slices.Equal(idsOfNodes(g, got), idsOfNodes(rg, want)) {
			t.Fatalf("%s: scratch view selects %v, reference %v", sel.Name(), idsOfNodes(g, got), idsOfNodes(rg, want))
		}
	}
}

func viewWeight(t *testing.T, n *Node, a, b int64) float64 {
	t.Helper()
	lv, w := n.buildLocalView()
	e, ok := lv.G.EdgeBetween(lv.G.IndexOf(graph.NodeID(a)), lv.G.IndexOf(graph.NodeID(b)))
	if !ok {
		t.Fatalf("no edge %d-%d in the view", a, b)
	}
	return w[e]
}

// The corner cases of the neighbourhood tables, each against the reference
// and each with its precedence rule asserted outright.
func TestLocalViewPrecedence(t *testing.T) {
	for _, m := range []metric.Metric{metric.Delay(), metric.Bandwidth()} {
		// Asymmetric adverts: 20 lists 30, 30 does not list 20 (and 30
		// lists 40, which nobody else knows).
		n := nodeFor(t, neighborhood{
			self:  10,
			links: []LinkInfo{{20, 2}, {30, 3}},
			adv: map[int64][]LinkInfo{
				20: {{10, 2}, {30, 7}},
				30: {{10, 3}, {40, 4}},
			},
		}, m)
		compareViews(t, n)
		if w := viewWeight(t, n, 20, 30); w != 7 {
			t.Errorf("%s: one-sided advert 20-30 has weight %v, want 7", m.Name(), w)
		}

		// Both endpoints advertise the pair at different weights: the
		// smaller-ID neighbour's value wins. The own link disagrees with the
		// neighbour's advert about it: own wins.
		n = nodeFor(t, neighborhood{
			self:  25,
			links: []LinkInfo{{20, 2}, {30, 3}},
			adv: map[int64][]LinkInfo{
				30: {{20, 9}, {25, 11}},
				20: {{25, 12}, {30, 5}},
			},
		}, m)
		compareViews(t, n)
		if w := viewWeight(t, n, 20, 30); w != 5 {
			t.Errorf("%s: doubly advertised 20-30 has weight %v, want neighbour 20's 5", m.Name(), w)
		}
		if w := viewWeight(t, n, 25, 30); w != 3 {
			t.Errorf("%s: own link 25-30 has weight %v, want own 3 over the advert's 11", m.Name(), w)
		}

		// A HELLO table from a node there is no own link to: its ids are
		// nodes of the graph, isolated, and its links are not edges.
		n = nodeFor(t, neighborhood{
			self:  1,
			links: []LinkInfo{{2, 4}},
			adv: map[int64][]LinkInfo{
				2: {{1, 4}, {3, 6}},
				7: {{8, 1}, {2, 1}},
			},
		}, m)
		compareViews(t, n)
		lv, _ := n.buildLocalView()
		if x := lv.G.IndexOf(8); x < 0 || lv.G.Degree(x) != 0 || lv.Role(x) != graph.RoleOutside {
			t.Errorf("%s: id 8, heard of only through a non-neighbour, is not an isolated node of the view", m.Name())
		}
		if lv.G.M() != 2 {
			t.Errorf("%s: %d edges, want 1-2 and 2-3 only", m.Name(), lv.G.M())
		}

		// Degree 1 with nothing heard, and no link at all.
		compareViews(t, nodeFor(t, neighborhood{self: 5, links: []LinkInfo{{6, 1}}}, m))
		empty := nodeFor(t, neighborhood{self: 5, adv: map[int64][]LinkInfo{6: {{5, 1}}}}, m)
		compareViews(t, empty)
		if lv, _ := empty.buildLocalView(); lv != nil {
			t.Errorf("%s: a node without links has a view", m.Name())
		}
		if ans := empty.ANS(0); len(ans) != 0 {
			t.Errorf("%s: a node without links advertises %v", m.Name(), ans)
		}
	}
}

// randomNeighborhood draws tables that disagree the way real ones do not have
// to: one-sided adverts, unequal weights for one pair, tables from nodes
// without an own link, own links without a table.
func randomNeighborhood(rng *rand.Rand) neighborhood {
	ids := rng.Perm(120)[:3+rng.Intn(45)]
	slices.Sort(ids)
	nb := neighborhood{self: int64(ids[rng.Intn(len(ids))]), adv: map[int64][]LinkInfo{}}
	table := func(from int64, p float64) []LinkInfo {
		var adv []LinkInfo
		for _, id := range ids {
			if int64(id) != from && rng.Float64() < p {
				adv = append(adv, LinkInfo{Neighbor: int64(id), Weight: float64(1 + rng.Intn(12))})
			}
		}
		return adv
	}
	nb.links = table(nb.self, 0.35)
	for _, l := range nb.links {
		if rng.Float64() < 0.9 {
			nb.adv[l.Neighbor] = table(l.Neighbor, 0.3)
		}
	}
	for i := 0; i < 2; i++ {
		if stray := int64(ids[rng.Intn(len(ids))]); stray != nb.self {
			nb.adv[stray] = table(stray, 0.2)
		}
	}
	return nb
}

// The scratch-built view and everything selected on it equal the reference
// on seeded random neighbourhoods, for an additive and a concave metric. The
// nodes of one trial share nothing, so every build starts on a cold scratch;
// the members of one field then run through a warm, shared one.
func TestLocalViewMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 150; trial++ {
		nb := randomNeighborhood(rng)
		for _, m := range []metric.Metric{metric.Delay(), metric.Bandwidth()} {
			compareViews(t, nodeFor(t, nb, m))
		}
	}

	cfg := DefaultConfig(metric.Bandwidth())
	cfg.LinkSensing = SenseHost
	ids := make([]int64, 120)
	for i := range ids {
		ids[i] = int64(i)
	}
	field, err := NewNodes(ids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 150; trial++ {
		nb := randomNeighborhood(rng)
		n := field[nb.self]
		for _, l := range nb.links {
			n.UpdateLink(l.Neighbor, l.Weight, 0)
		}
		for origin, adv := range nb.adv {
			n.HandleHello(&Hello{Origin: origin, Links: adv}, 0)
		}
		compareViews(t, n)
	}
}

// Views whose ids leave the store's window: a field's members and the ids
// they hear of run from negative ids through ids past the window, and the
// HELLO tables are ingested in descending sender order, then in shuffled
// order. Every member's view, built in the field's one shared scratch, and
// everything selected on it equal the reference.
func TestLocalViewOutsideWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var below, past int
	for trial := 0; trial < 200; trial++ {
		m := []metric.Metric{metric.Delay(), metric.Bandwidth()}[trial%2]
		cfg := DefaultConfig(m)
		cfg.LinkSensing = SenseHost
		cfg.DenseIDs = layoutWindow
		var universe, members []int64
		for id := int64(layoutLo); id < layoutHi; id++ {
			universe = append(universe, id)
		}
		for _, i := range rng.Perm(len(universe))[:3+rng.Intn(6)] {
			members = append(members, universe[i])
		}
		slices.Sort(members)
		field, err := NewNodes(members, cfg)
		if err != nil {
			t.Fatal(err)
		}
		order := slices.Clone(universe)
		slices.Reverse(order)
		if trial >= 100 {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		table := func(p float64) []LinkInfo {
			var adv []LinkInfo
			for _, id := range universe {
				if rng.Float64() < p {
					adv = append(adv, LinkInfo{Neighbor: id, Weight: float64(1 + rng.Intn(4))})
				}
			}
			return adv
		}
		for _, n := range field {
			for _, l := range table(0.35) {
				if l.Neighbor != n.ID {
					n.UpdateLink(l.Neighbor, l.Weight, 0)
				}
			}
			for _, id := range order {
				if rng.Float64() < 0.5 {
					n.HandleHello(&Hello{Origin: id, Links: table(0.3)}, 0)
				}
			}
			compareViews(t, n)
			if lv, _ := n.buildLocalView(); lv != nil {
				g := lv.G
				if g.ID(0) < 0 {
					below++
				}
				if g.ID(int32(g.N()-1)) >= graph.NodeID(n.store.window) {
					past++
				}
			}
		}
	}
	if below < 100 || past < 100 {
		t.Errorf("%d views with negative ids, %d with ids past the window: the draw lost a corner", below, past)
	}
	t.Logf("%d views with negative ids, %d with ids past the window", below, past)
}

// mustAddEdge adds the edge a–b to a statically known-good fixture,
// panicking on an error.
func mustAddEdge(g *graph.Graph, a, b int32) int {
	e, err := g.AddEdge(a, b)
	if err != nil {
		panic(err)
	}
	return e
}
