package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"qolsr/internal/core"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/netgen"
	"qolsr/internal/olsr"
	"qolsr/internal/route"

	"qolsr/internal/geom"
)

func testNetwork(t *testing.T, phys *graph.Graph, m metric.Metric) *Network {
	t.Helper()
	cfg := olsr.DefaultConfig(m)
	nw, err := NewNetwork(phys, cfg, NetworkOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func smallWorld(t *testing.T, seed int64, degree float64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dep := geom.Deployment{Field: geom.Field{Width: 300, Height: 300}, Radius: 100, Degree: degree}
	g, err := netgen.Build(dep, "bandwidth", metric.DefaultInterval(), rng)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mediumWorld is a field of about 150 nodes at mean degree 10: enough work
// per barrier that every rebuild worker takes a share.
func mediumWorld(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dep := geom.Deployment{Field: geom.Field{Width: 690, Height: 690}, Radius: 100, Degree: 10}
	g, err := netgen.Build(dep, "bandwidth", metric.DefaultInterval(), rng)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The central integration test: after enough protocol rounds, every node's
// distributed ANS equals the offline selection on the true topology, for
// every selector under both metrics, on a field of 123 nodes.
func TestProtocolConvergesToOfflineSelection(t *testing.T) {
	for _, m := range []metric.Metric{metric.Bandwidth(), metric.Delay()} {
		rng := rand.New(rand.NewSource(1))
		dep := geom.Deployment{Field: geom.Field{Width: 600, Height: 600}, Radius: 100, Degree: 12}
		g, err := netgen.Build(dep, m.Name(), metric.DefaultInterval(), rng)
		if err != nil {
			t.Fatal(err)
		}
		w, err := g.Weights(m.Name())
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"fnbp", "topofilter", "qolsr", "full"} {
			t.Run(m.Name()+"/"+name, func(t *testing.T) {
				sel, err := core.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				cfg := olsr.DefaultConfig(m)
				cfg.Selector = sel
				nw, err := NewNetwork(g, cfg, NetworkOptions{Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				nw.Start()
				nw.Run(30 * time.Second)
				sets, err := nw.ANSSets()
				if err != nil {
					t.Fatal(err)
				}
				for u := int32(0); int(u) < g.N(); u++ {
					want, err := sel.Select(graph.NewLocalView(g, u), m, w)
					if err != nil {
						t.Fatal(err)
					}
					if want == nil {
						want = []int32{}
					}
					got := sets[u]
					if got == nil {
						got = []int32{}
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("node %d: distributed ANS %v != offline %v", u, got, want)
					}
				}
			})
		}
	}
}

// Routing tables computed from flooded TCs must reach every node of the
// connected component with loop-free next hops.
func TestProtocolRoutingReachability(t *testing.T) {
	m := metric.Bandwidth()
	g := smallWorld(t, 13, 8)
	nw := testNetwork(t, g, m)
	nw.Start()
	nw.Run(60 * time.Second)

	now := nw.Engine.Now()
	reach := graph.Reachable(g, 0)
	table, err := nw.Nodes[0].Routes(now)
	if err != nil {
		t.Fatal(err)
	}
	for x := 1; x < g.N(); x++ {
		if !reach[x] {
			continue
		}
		if _, ok := table.Lookup(int64(g.ID(int32(x)))); !ok {
			t.Errorf("node 0 has no route to reachable node %d", x)
		}
	}

	// Hop-by-hop forwarding over per-node routing tables must deliver
	// without loops.
	tables := make([]*olsr.Routes, g.N())
	for i := range nw.Nodes {
		tbl, err := nw.Nodes[i].Routes(now)
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = tbl
	}
	idx := func(id int64) int32 { return g.IndexOf(graph.NodeID(id)) }
	delivered := 0
	for dst := 1; dst < g.N() && dst < 12; dst++ {
		if !reach[dst] {
			continue
		}
		next := func(at, target int32) int32 {
			r, ok := tables[at].Lookup(int64(g.ID(target)))
			if !ok {
				return -1
			}
			return idx(r.NextHop)
		}
		if _, ok := route.Forward(next, 0, int32(dst), g.N()+1); ok {
			delivered++
		} else {
			t.Errorf("forwarding 0 -> %d failed", dst)
		}
	}
	if delivered == 0 {
		t.Error("no destinations delivered")
	}
}

func TestTrafficAccounting(t *testing.T) {
	m := metric.Bandwidth()
	g := smallWorld(t, 17, 6)
	nw := testNetwork(t, g, m)
	nw.Start()
	nw.Run(20 * time.Second)
	if nw.Stats.HelloMessages == 0 || nw.Stats.HelloBytes == 0 {
		t.Error("no hello traffic accounted")
	}
	if nw.Stats.TCOriginated == 0 {
		t.Error("no TCs originated")
	}
	if nw.Stats.TCMessages < nw.Stats.TCOriginated {
		t.Error("forwarded TC count below originated count")
	}
	if nw.ControlBytesPerSecond() <= 0 {
		t.Error("control rate not positive")
	}
}

// TC sizes on the wire scale with the advertised-set size, which ties the
// control-overhead experiment (A4) to Figs. 6-7: QOLSR's bigger sets must
// cost more TC bytes than FNBP's.
func TestTCBytesReflectSelectorSize(t *testing.T) {
	m := metric.Bandwidth()
	g := smallWorld(t, 19, 10)

	run := func(sel core.Selector) uint64 {
		cfg := olsr.DefaultConfig(m)
		cfg.Selector = sel
		nw, err := NewNetwork(g, cfg, NetworkOptions{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		nw.Start()
		nw.Run(40 * time.Second)
		return nw.Stats.TCBytes
	}
	fnbp := run(core.FNBP{})
	full := run(core.FullAdvertise{})
	if fnbp >= full {
		t.Errorf("TC bytes: fnbp=%d >= full=%d", fnbp, full)
	}
}

func TestNewNetworkValidation(t *testing.T) {
	g := graph.New(2) // no weight channel
	cfg := olsr.DefaultConfig(metric.Bandwidth())
	if _, err := NewNetwork(g, cfg, NetworkOptions{}); err == nil {
		t.Error("missing weight channel accepted")
	}
}

// TestNewNetworkRejectsRTTSensing: the simulator measures no round trips,
// so a SenseRTT network would never price a link and would silently route
// on the oracle weights; NewNetwork refuses it and builds every other mode.
func TestNewNetworkRejectsRTTSensing(t *testing.T) {
	g := smallWorld(t, 1, 6)
	for _, sense := range []olsr.LinkSensing{olsr.SenseOracle, olsr.SenseHost, olsr.SenseDelivery, olsr.SenseRTT} {
		cfg := olsr.DefaultConfig(metric.Bandwidth())
		cfg.LinkSensing = sense
		_, err := NewNetwork(g, cfg, NetworkOptions{})
		if got, want := err != nil, sense == olsr.SenseRTT; got != want {
			t.Errorf("link sensing %d: err = %v, want rejected %v", sense, err, want)
		}
	}
}

// TestTTLScopedRelayAndDupSuppression pins the fish-eye relay semantics on
// a 5-node line 0-1-2-3-4: a TC from node 0 scoped to TTL 3 is relayed by
// 1 and 2, received by 3 at TTL 1 — which must ingest it (3 learns the
// 0-1 link it cannot learn from HELLOs) but not re-flood it, so 4 stays
// beyond the fish-eye boundary. Duplicate suppression operates on (origin,
// seq) regardless of scope: re-sending the same seq unlimited changes
// nothing, while a fresh seq crosses the boundary.
func TestTTLScopedRelayAndDupSuppression(t *testing.T) {
	g := graph.New(5)
	for i := int32(0); i < 4; i++ {
		e := mustAddEdge(g, i, i+1)
		if err := g.SetWeight("bandwidth", e, 5); err != nil {
			t.Fatal(err)
		}
	}
	cfg := olsr.DefaultConfig(metric.Bandwidth())
	nw, err := NewNetwork(g, cfg, NetworkOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// HELLO rounds only (no Start: TC emission is driven by hand below)
	// until 2-hop views and selector state settle.
	for round := 0; round < 4; round++ {
		for i := range nw.Nodes {
			nw.emitHelloNow(i)
		}
		nw.Engine.Run(nw.Engine.Now() + 100*time.Millisecond)
	}
	routeTo0 := func(node int) bool {
		r, err := nw.Nodes[node].Routes(nw.Engine.Now())
		if err != nil {
			t.Fatal(err)
		}
		_, ok := r.Lookup(0)
		return ok
	}
	if routeTo0(3) || routeTo0(4) {
		t.Fatal("3-hop route to 0 exists before any TC")
	}

	tc := nw.Nodes[0].GenerateTC(nw.Engine.Now())
	if tc == nil {
		t.Fatal("node 0 has nothing to advertise")
	}
	// Pin the flood's visited set (the simulator owns duplicate suppression
	// per flood): the pin keeps it out of the pool so the duplicate
	// re-broadcast below provably belongs to the same flood, the way a
	// relayed frame would.
	flood := nw.newFlood()
	flood.refs = 1
	sendTC(nw, 0, tc, 3, flood)
	nw.Engine.Run(nw.Engine.Now() + time.Second)
	if !routeTo0(3) {
		t.Error("TC received at TTL 1 did not update topology")
	}
	if routeTo0(4) {
		t.Error("TC re-flooded past its TTL scope")
	}
	if fwd := nw.Stats.TCForwarded; fwd != 2 {
		t.Errorf("TCForwarded = %d, want 2 (relays at nodes 1 and 2)", fwd)
	}

	// The same flood at unlimited scope is a duplicate everywhere it already
	// travelled: node 1 drops it and the boundary stands.
	sendTC(nw, 0, tc, 0, flood)
	nw.Engine.Run(nw.Engine.Now() + time.Second)
	if routeTo0(4) {
		t.Error("duplicate seq crossed the fish-eye boundary")
	}
	if fwd := nw.Stats.TCForwarded; fwd != 2 {
		t.Errorf("TCForwarded = %d after duplicate, want still 2", fwd)
	}

	// Fresh floods at unlimited scope relay all the way: with node 0's next
	// TC (the 0-1 link) and node 1's (the 1-2 link) flooded unscoped,
	// even node 4 completes a route to 0.
	tc0 := nw.Nodes[0].GenerateTC(nw.Engine.Now())
	sendTC(nw, 0, tc0, 0, nw.newFlood())
	tc1 := nw.Nodes[1].GenerateTC(nw.Engine.Now())
	sendTC(nw, 1, tc1, 0, nw.newFlood())
	nw.Engine.Run(nw.Engine.Now() + time.Second)
	if !routeTo0(4) {
		t.Error("fresh unlimited TC did not cross the boundary")
	}
}

// sendTC transmits tc from node from at flood scope ttl in flood fs, the way
// emitTCNow sends a full TC.
func sendTC(nw *Network, from int32, tc *olsr.TC, ttl int32, fs *floodState) {
	fs.tc = *tc
	nw.broadcastFrame(from, olsr.TCLen(tc), ttl, nil, fs)
}

// TestDeltaTCNetworkConverges runs the full optimized control plane (delta
// TCs, fish-eye scoping, min-cover flood relays) on a random field and
// checks it reaches the same routing reachability as the classic path,
// with the byte split consistent.
func TestDeltaTCNetworkConverges(t *testing.T) {
	m := metric.Bandwidth()
	g := smallWorld(t, 11, 8)
	cfg := olsr.DefaultConfig(m)
	cfg.DeltaTC = true
	cfg.Fisheye = true
	cfg.MinCoverRelays = true
	nw, err := NewNetwork(g, cfg, NetworkOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	nw.Run(60 * time.Second)
	now := nw.Engine.Now()
	// Every node must route to every other (the field is connected).
	for i, n := range nw.Nodes {
		r, err := n.Routes(now)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != g.N()-1 {
			t.Fatalf("node %d routes to %d of %d destinations under optimized control plane", i, r.Len(), g.N()-1)
		}
	}
	s := nw.Stats
	if s.TCBytes != s.TCOriginatedBytes+s.TCForwardedBytes {
		t.Errorf("byte split inconsistent: %d != %d + %d", s.TCBytes, s.TCOriginatedBytes, s.TCForwardedBytes)
	}
	if s.TCMessages != s.TCOriginated+s.TCForwarded {
		t.Errorf("message split inconsistent: %d != %d + %d", s.TCMessages, s.TCOriginated, s.TCForwarded)
	}
	if s.TCOriginatedBytes == 0 || s.TCForwardedBytes == 0 {
		t.Error("degenerate byte split")
	}
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
