package olsr

import (
	"cmp"
	"fmt"
	"maps"
	"math"
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
// own links, HELLO tables from direct and non-direct neighbors, and TC rows,
// ingested in the given order of their senders (ascending when order is nil),
// which is also the order their store slots outside the window are claimed in.
// Any table may name the node itself or list its own sender (a self-loop).
// Weights are small integers, so a pair that two tiers, or two members of one
// tier, advertise mostly carries two different weights.
func routeTables(t *testing.T, rng *rand.Rand, order []int64) *Node {
	t.Helper()
	cfg := DefaultConfig(metric.Delay())
	cfg.LinkSensing = SenseHost
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
	if order == nil {
		for id := int64(layoutLo); id < layoutHi; id++ {
			order = append(order, id)
		}
	}
	for _, id := range order {
		if rng.Float64() < 0.5 {
			n.HandleHello(&Hello{Origin: id, Links: table(0.25)}, 0)
		}
		if rng.Float64() < 0.5 {
			n.HandleTC(&TC{Origin: id, ANSN: 1, Links: table(0.2)}, id, 0)
		}
	}
	return n
}

// resolvePair returns the current effective weight of the link between a and
// b, consulting the state tables in the layout's precedence order one pair at
// a time: own links first, then HELLO advertisements from direct neighbors
// (the smaller endpoint's advertisement wins), then TC advertisements (the
// smaller origin wins). The second return is false when no valid state
// supports the link. It is the layout's oracle: it shares no code with it.
func (n *Node) resolvePair(a, b int64) (float64, bool) {
	if a == n.ID {
		if l := n.links.get(b); l != nil {
			return l.weight, true
		}
	} else if b == n.ID {
		if l := n.links.get(a); l != nil {
			return l.weight, true
		}
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	if w, ok := n.helloAdvertised(lo, hi); ok {
		return w, true
	}
	if w, ok := n.helloAdvertised(hi, lo); ok {
		return w, true
	}
	if w, ok := advWeight(linksOf(n, lo), hi); ok {
		return w, true
	}
	if w, ok := advWeight(linksOf(n, hi), lo); ok {
		return w, true
	}
	return 0, false
}

// helloAdvertised returns nb's advertised weight for its link to peer, when
// nb is a direct neighbor (we hold our own link to it) with a live HELLO
// table. Links to ourselves never come from this tier (our own link table is
// authoritative for those) and neither end can be us as contributor.
func (n *Node) helloAdvertised(nb, peer int64) (float64, bool) {
	if nb == n.ID || peer == n.ID {
		return 0, false
	}
	if !n.links.has(nb) {
		return 0, false
	}
	tbl := n.neighbors.get(nb)
	if tbl == nil {
		return 0, false
	}
	return advWeight(tbl.adv, peer)
}

// advWeight returns the advertised weight for peer in a normalised block.
func advWeight(adv []LinkInfo, peer int64) (float64, bool) {
	i, ok := slices.BinarySearchFunc(adv, peer, func(l LinkInfo, id int64) int {
		return cmp.Compare(l.Neighbor, id)
	})
	if !ok {
		return 0, false
	}
	return adv[i].Weight, true
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

// oracleTable solves the oracle's routing graph, built through
// graph.NewWithIDs and AddEdge in ascending pair order, by one canonical
// Dijkstra from the node, and returns its routing table. ids must be
// ascending, so the graph's index order is the table's destination order.
func oracleTable(t *testing.T, n *Node, ids []graph.NodeID, edges map[[2]graph.NodeID]float64) *Routes {
	t.Helper()
	g, err := graph.NewWithIDs(ids)
	if err != nil {
		t.Fatal(err)
	}
	pairs := slices.SortedFunc(maps.Keys(edges), func(a, b [2]graph.NodeID) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	w := make([]float64, 0, len(pairs))
	for _, p := range pairs {
		if _, err := g.AddEdge(g.IndexOf(p[0]), g.IndexOf(p[1])); err != nil {
			t.Fatal(err)
		}
		w = append(w, edges[p])
	}
	sp := graph.Dijkstra(g, n.cfg.Metric, w, g.IndexOf(graph.NodeID(n.ID)), nil, -1)
	first, hops := sp.FirstHops(nil, nil)
	want := &Routes{dst: ids, entries: make([]routeEntry, len(ids))}
	for x, f := range first {
		want.entries[x] = routeEntry{sp.Dist[x], hops[x], f}
		if f >= 0 {
			want.reached++
		}
	}
	return want
}

// checkRoutes holds a routing table to the oracle's.
func checkRoutes(t *testing.T, trial string, r, want *Routes) {
	t.Helper()
	if !routesIdentical(r, want) {
		t.Fatalf("trial %s: table differs from the oracle's:\ngot    %v\noracle %v", trial, routeMap(r), routeMap(want))
	}
}

// routeRow is one destination of a table and its route.
type routeRow struct {
	dst   int64
	route Route
}

// routeRows materialises a table in All's order; nil if All yields other
// than Len routes or does not ascend.
func routeRows(r *Routes) []routeRow {
	rows := make([]routeRow, 0, r.Len())
	for dst, route := range r.All() {
		if len(rows) > 0 && dst <= rows[len(rows)-1].dst {
			return nil
		}
		rows = append(rows, routeRow{dst, route})
	}
	if len(rows) != r.Len() {
		return nil
	}
	return rows
}

// rowsIdentical reports whether two materialised tables are equal, values
// bit for bit.
func rowsIdentical(a, b []routeRow) bool {
	return a != nil && b != nil && slices.EqualFunc(a, b, func(x, y routeRow) bool {
		return x.dst == y.dst && x.route.NextHop == y.route.NextHop && x.route.Hops == y.route.Hops &&
			math.Float64bits(x.route.Value) == math.Float64bits(y.route.Value)
	})
}

// routesIdentical reports whether two routing tables carry identical content.
func routesIdentical(a, b *Routes) bool { return rowsIdentical(routeRows(a), routeRows(b)) }

// routeMap materialises a table as a map, for failure messages.
func routeMap(r *Routes) map[int64]Route { return maps.Collect(r.All()) }

// checkLayout holds a node's fresh layout to the given ids and edges, and its
// from-scratch Routes to the table of the same graph built by the oracle.
func checkLayout(t *testing.T, trial string, n *Node, ids []graph.NodeID, edges map[[2]graph.NodeID]float64) {
	t.Helper()
	g := n.layoutRoutes(new(routeScratch))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	got := make([]graph.NodeID, g.N())
	for x := range got {
		got[x] = g.ID(int32(x))
	}
	if !slices.Equal(got, ids) {
		t.Fatalf("trial %s: layout ids %v, oracle %v", trial, got, ids)
	}
	w, err := g.Weights(n.cfg.Metric.Name())
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != len(edges) {
		t.Fatalf("trial %s: layout has %d edges, oracle %d", trial, g.M(), len(edges))
	}
	for e := 0; e < g.M(); e++ {
		a, b := g.EdgeEndpoints(e)
		pair := [2]graph.NodeID{min(g.ID(a), g.ID(b)), max(g.ID(a), g.ID(b))}
		if want, ok := edges[pair]; !ok || w[e] != want {
			t.Fatalf("trial %s: edge %v weighs %v, oracle %v (%v)", trial, pair, w[e], want, ok)
		}
	}
	r, err := n.Routes(0)
	if err != nil {
		t.Fatal(err)
	}
	checkRoutes(t, trial, r, oracleTable(t, n, ids, edges))
}

// The linear-time layout equals the pair-by-pair oracle on ids, edges and
// weights, and a from-scratch Routes equals the oracle graph's table. The
// first 500 trials ingest the tables in ascending sender order; the rest in
// descending, then shuffled order, so the store's slot order is not ascending.
func TestRouteLayoutMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 500; trial++ {
		n := routeTables(t, rng, nil)
		ids, edges := routeOracle(n)
		checkLayout(t, fmt.Sprint(trial), n, ids, edges)
	}
	var order []int64
	for id := int64(layoutHi - 1); id >= layoutLo; id-- {
		order = append(order, id)
	}
	for trial := 0; trial < 500; trial++ {
		if trial >= 250 {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		n := routeTables(t, rng, order)
		ids, edges := routeOracle(n)
		checkLayout(t, fmt.Sprintf("%d, ingested %v", trial, order), n, ids, edges)
	}
}

// A pair both ends advertise in one tier at different weights takes the
// smaller contributor's weight, even when the larger one's table arrived
// first and, in the TC tier, holds the store slot the walk meets first: -2
// and 30 are claimed overflow slots after 5 (a window slot) and 31.
func TestRouteLayoutSmallerContributorWins(t *testing.T) {
	cfg := DefaultConfig(metric.Delay())
	cfg.LinkSensing = SenseHost
	cfg.DenseIDs = layoutWindow
	n, err := NewNode(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.UpdateLink(20, 1, 0)
	n.UpdateLink(21, 1, 0)
	n.HandleHello(&Hello{Origin: 21, Links: []LinkInfo{{20, 3}}}, 0)
	n.HandleHello(&Hello{Origin: 20, Links: []LinkInfo{{21, 2}}}, 0)
	for _, tc := range []struct {
		origin, peer int64
		w            float64
	}{{31, 30, 4}, {30, 31, 1}, {5, -2, 4}, {-2, 5, 1}} {
		n.HandleTC(&TC{Origin: tc.origin, ANSN: 1, Links: []LinkInfo{{tc.peer, tc.w}}}, tc.origin, 0)
	}
	checkLayout(t, "smaller contributor", n, []graph.NodeID{-2, 0, 5, 20, 21, 30, 31},
		map[[2]graph.NodeID]float64{{0, 20}: 1, {0, 21}: 1, {20, 21}: 2, {30, 31}: 1, {-2, 5}: 1})
}

// layoutFixture is one node with 10 neighbours — own links, and HELLOs each
// naming the node and one two-hop neighbour — and a TC row of 4 links from
// each of origins further nodes. With dense set every id lies inside the
// topology store's identity window (the simulator's case); without it every
// id but the node's own goes through the overflow map (the daemon's case).
func layoutFixture(tb testing.TB, origins int, dense bool) *Node {
	tb.Helper()
	cfg := testConfig()
	cfg.LinkSensing = SenseHost
	if dense {
		cfg.DenseIDs = 11 + origins
	}
	n, err := NewNode(0, cfg)
	if err != nil {
		tb.Fatal(err)
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

// freshRoutes drops the node's cached table, then asks for its routes: a
// fresh layout, one Dijkstra and the table.
func freshRoutes(tb testing.TB, n *Node) {
	n.routes = nil
	if _, err := n.Routes(time.Second); err != nil {
		tb.Fatal(err)
	}
}

// TestRouteEntryLayout pins a routing table's per-destination entry: 16
// bytes with no pointer, so a snapshot's entries are one allocation the
// collector never scans.
func TestRouteEntryLayout(t *testing.T) {
	checkFlat(t, "routeEntry", routeEntry{}, 16)
}

// A from-scratch Routes on a warm field scratch allocates its snapshot and
// nothing else, whether the ids lie inside the store's window or not: the
// Routes and its entries. The routing graph is laid out in the field's
// scratch, and the destination column is the scratch's, its ids unchanged.
func TestRouteLayoutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	for _, origins := range []int{150, 1500} {
		for _, dense := range []bool{true, false} {
			n := layoutFixture(t, origins, dense)
			allocs := testing.AllocsPerRun(5, func() { freshRoutes(t, n) })
			if r := n.routes; r.Len() < origins {
				t.Fatalf("%d origins: %d routes, fixture not connected enough", origins, r.Len())
			}
			t.Logf("%d origins, dense %v: %.0f allocations per from-scratch Routes", origins, dense, allocs)
			if allocs > 2 {
				t.Errorf("%d origins, dense %v: %.0f allocations per from-scratch Routes, ceiling 2", origins, dense, allocs)
			}
		}
	}
}

// BenchmarkRouteLayout measures a from-scratch Routes at 150 and 1,500 TC
// origins, with the ids inside the store's identity window (window) and
// outside it (overflow).
func BenchmarkRouteLayout(b *testing.B) {
	for _, origins := range []int{150, 1500} {
		for _, dense := range []bool{true, false} {
			name := fmt.Sprintf("origins=%d/overflow", origins)
			if dense {
				name = fmt.Sprintf("origins=%d/window", origins)
			}
			b.Run(name, func(b *testing.B) {
				n := layoutFixture(b, origins, dense)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					freshRoutes(b, n)
				}
			})
		}
	}
}

// topoLinks, the staging size a fresh layout reserves for the TC tier, counts
// the links of the rows a node holds through full TCs, in-chain deltas and
// expiry: origins 4-6 fall silent halfway and their rows expire.
func TestTopoLinksCounted(t *testing.T) {
	cfg := testConfig()
	n, err := NewNode(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	now, expired := time.Duration(0), false
	for step := 1; step <= 400; step++ {
		now += 250 * time.Millisecond
		origin := int64(1 + rng.Intn(6))
		if step > 200 {
			origin = int64(1 + rng.Intn(3))
		}
		seq := uint16(step)
		if row := rowOf(n, origin); row != nil && rng.Intn(3) != 0 {
			var del []int64
			for _, l := range linksOf(n, origin) {
				if rng.Intn(3) == 0 {
					del = append(del, l.Neighbor)
				}
			}
			n.HandleTCDelta(&TCDelta{Origin: origin, Seq: seq, ANSN: seq, FullSeq: row.fullSeq, Index: row.chain + 1,
				Add: randomLinks(rng, 12), Del: del}, origin, now)
		} else {
			n.HandleTC(&TC{Origin: origin, Seq: seq, ANSN: seq, Links: randomLinks(rng, 12)}, origin, now)
		}
		n.expire(now)
		held := 0
		n.store.each(n.member, func(_ int64, b *topoBlock, r *topoRow) { held += len(b.state(*r).adv) })
		if n.topoLinks != held {
			t.Fatalf("step %d: topoLinks %d, rows hold %d links", step, n.topoLinks, held)
		}
		expired = expired || (step > 200 && n.topoRows < 6)
	}
	if !expired {
		t.Error("no silent origin's row expired: the fixture exercised no expiry")
	}
}
