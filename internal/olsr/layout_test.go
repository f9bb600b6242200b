package olsr

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"qolsr/internal/graph"
	"qolsr/internal/metric"
)

// layoutUniverse is the id range routeTables draws from. The store's identity
// window is [0, layoutWindow): the negative ids and those past the window go
// through its overflow map and sort to either side of the window.
const (
	layoutLo, layoutHi = -6, 18
	layoutWindow       = 8
)

// routeTables loads one node with seeded state tables over layoutUniverse:
// own links, HELLO tables from direct and non-direct neighbors, and TC rows.
// Any table may name the node itself or list its own sender (a self-loop).
// Weights are small integers, so a pair that two tiers, or two members of one
// tier, advertise mostly carries two different weights.
func routeTables(t *testing.T, rng *rand.Rand) *Node {
	t.Helper()
	cfg := DefaultConfig(metric.Delay())
	cfg.LinkSensing = SenseHost
	cfg.ExternalDupSuppression = true
	cfg.DenseIDs = layoutWindow
	n, err := NewNode(int64(layoutLo+rng.Intn(layoutHi-layoutLo)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	table := func(p float64) []LinkInfo {
		var adv []LinkInfo
		for id := int64(layoutLo); id < layoutHi; id++ {
			if rng.Float64() < p {
				adv = append(adv, LinkInfo{Neighbor: id, Weight: float64(1 + rng.Intn(4))})
			}
		}
		return adv
	}
	for id := int64(layoutLo); id < layoutHi; id++ {
		if id != n.ID && rng.Float64() < 0.3 {
			n.UpdateLink(id, float64(1+rng.Intn(4)), 0)
		}
	}
	for id := int64(layoutLo); id < layoutHi; id++ {
		if rng.Float64() < 0.5 {
			n.HandleHello(&Hello{Origin: id, Links: table(0.25)}, 0)
		}
		if rng.Float64() < 0.5 {
			n.HandleTC(&TC{Origin: id, ANSN: 1, Links: table(0.2)}, id, 0)
		}
	}
	return n
}

// routeOracle derives the routing graph from resolvePair alone: its nodes are
// this node plus every id resolvePair finds a weight for against some other
// id, and its edges those weights.
func routeOracle(n *Node) ([]graph.NodeID, map[[2]graph.NodeID]float64) {
	ids := []graph.NodeID{graph.NodeID(n.ID)}
	edges := map[[2]graph.NodeID]float64{}
	for a := int64(layoutLo); a < layoutHi; a++ {
		for b := a + 1; b < layoutHi; b++ {
			if w, ok := n.resolvePair(a, b); ok {
				edges[[2]graph.NodeID{graph.NodeID(a), graph.NodeID(b)}] = w
				ids = append(ids, graph.NodeID(a), graph.NodeID(b))
			}
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids), edges
}

// The one-pass layout equals the pair-by-pair oracle on ids, edges and
// weights, and a from-scratch Routes holds exactly the oracle's nodes.
func TestRouteLayoutMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 500; trial++ {
		n := routeTables(t, rng)
		ids, edges := routeOracle(n)
		g := n.layoutRoutes()
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		got := make([]graph.NodeID, g.N())
		for x := range got {
			got[x] = g.ID(int32(x))
		}
		if !slices.Equal(got, ids) {
			t.Fatalf("trial %d: layout ids %v, oracle %v", trial, got, ids)
		}
		w, err := g.Weights(n.cfg.Metric.Name())
		if err != nil {
			t.Fatal(err)
		}
		if g.M() != len(edges) {
			t.Fatalf("trial %d: layout has %d edges, oracle %d", trial, g.M(), len(edges))
		}
		for e := 0; e < g.M(); e++ {
			a, b := g.EdgeEndpoints(e)
			pair := [2]graph.NodeID{min(g.ID(a), g.ID(b)), max(g.ID(a), g.ID(b))}
			if want, ok := edges[pair]; !ok || w[e] != want {
				t.Fatalf("trial %d: edge %v weighs %v, oracle %v (%v)", trial, pair, w[e], want, ok)
			}
		}
		if _, err := n.Routes(0); err != nil {
			t.Fatal(err)
		}
		if got := n.StateSize().RouteGraphNodes; got != len(ids) {
			t.Fatalf("trial %d: route graph holds %d nodes, oracle %d", trial, got, len(ids))
		}
	}
}

// layoutFixture is one node with 10 neighbours — own links, and HELLOs each
// naming the node and one two-hop neighbour — and one TC row of 4 links from
// each of origins further nodes.
func layoutFixture(t *testing.T, origins int) *Node {
	t.Helper()
	cfg := testConfig()
	cfg.LinkSensing = SenseHost
	cfg.ExternalDupSuppression = true
	n, err := NewNode(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(origins)))
	weight := func() float64 { return float64(1 + rng.Intn(9)) }
	for nb := int64(1); nb <= 10; nb++ {
		n.UpdateLink(nb, weight(), 0)
		n.HandleHello(&Hello{Origin: nb, Links: []LinkInfo{{0, weight()}, {nb + 10, weight()}}}, 0)
	}
	for o := int64(11); o < int64(11+origins); o++ {
		var adv []LinkInfo
		for len(adv) < 4 {
			if nb := 1 + rng.Int63n(int64(10+origins)); nb != o && !slices.ContainsFunc(adv, func(l LinkInfo) bool { return l.Neighbor == nb }) {
				adv = append(adv, LinkInfo{Neighbor: nb, Weight: weight()})
			}
		}
		n.HandleTC(&TC{Origin: o, ANSN: 1, Links: normalizeAdv(adv)}, 1, 0)
	}
	return n
}

// A from-scratch Routes — a fresh layout, a full SPF and the table — costs a
// bounded number of allocations, not a few per node of the graph.
func TestRouteLayoutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	for _, origins := range []int{150, 1500} {
		n := layoutFixture(t, origins)
		allocs := testing.AllocsPerRun(5, func() {
			n.rg, n.rspf, n.rfirst, n.routes = nil, nil, nil, nil
			if _, err := n.Routes(time.Second); err != nil {
				t.Fatal(err)
			}
		})
		if r := n.routes; r.Len() < origins {
			t.Fatalf("%d origins: %d routes, fixture not connected enough", origins, r.Len())
		}
		t.Logf("%d origins: %.0f allocations per from-scratch Routes", origins, allocs)
		if allocs > 200 {
			t.Errorf("%d origins: %.0f allocations per from-scratch Routes, ceiling 200", origins, allocs)
		}
	}
}
