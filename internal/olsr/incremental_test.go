package olsr

import (
	"math/rand"
	"testing"
	"time"

	"qolsr/internal/metric"
)

// randomLinks draws a small advertised link set over the test's node
// universe; weights are small integers so metric ties (and hence canonical
// tie-breaking) are exercised constantly.
func randomLinks(rng *rand.Rand, universe int) []LinkInfo {
	k := rng.Intn(4)
	out := make([]LinkInfo, 0, k)
	seen := make(map[int64]bool, k)
	for i := 0; i < k; i++ {
		id := int64(rng.Intn(universe))
		if seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, LinkInfo{Neighbor: id, Weight: float64(1 + rng.Intn(4))})
	}
	return out
}

// TestIncrementalRoutesCrossCheck drives a node through long randomized
// protocol histories — link updates, HELLOs, TCs, idle time jumps that
// trigger soft-state expiry — with Config.crossCheck on, so every
// rebuilt table is compared against a from-scratch rebuild inside Routes.
// Any divergence between the incremental repair and the full rebuild
// surfaces as an error here.
func TestIncrementalRoutesCrossCheck(t *testing.T) {
	metrics := []metric.Metric{metric.Delay(), metric.Bandwidth(), metric.Hop()}
	for _, m := range metrics {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				cfg := DefaultConfig(m)
				cfg.crossCheck = true
				const self = 5
				n, err := NewNode(self, cfg)
				if err != nil {
					t.Fatal(err)
				}
				const universe = 12
				now := time.Duration(0)
				for step := 0; step < 500; step++ {
					switch rng.Intn(12) {
					case 0, 1, 2:
						// The universe includes self: the no-self-link
						// guard is part of what is being checked.
						n.UpdateLink(int64(rng.Intn(universe)), float64(1+rng.Intn(4)), now)
					case 3, 4, 5:
						n.HandleHello(&Hello{
							Origin: int64(rng.Intn(universe)),
							Seq:    uint16(step),
							Links:  randomLinks(rng, universe),
						}, now)
					case 6, 7, 8:
						n.HandleTC(&TC{
							Origin: int64(rng.Intn(universe)),
							Seq:    uint16(step),
							ANSN:   uint16(rng.Intn(8)),
							Links:  randomLinks(rng, universe),
						}, int64(rng.Intn(universe)), now)
					case 9, 10:
						now += time.Duration(rng.Intn(2000)) * time.Millisecond
					default:
						// Jump past hold times to force expiries.
						now += time.Duration(2+rng.Intn(10)) * time.Second
					}
					if _, err := n.Routes(now); err != nil {
						t.Fatalf("metric %s seed %d step %d: %v", m.Name(), seed, step, err)
					}
				}
			}
		})
	}
}

// TestIncrementalRoutesAcrossExpiryAndRelearn pins the directness-toggle
// bookkeeping: a neighbor's advertised two-hop links must drop out of the
// table when our own link to it expires (even though its HELLO table is
// still valid), and come back when the link is relearned.
func TestIncrementalRoutesAcrossExpiryAndRelearn(t *testing.T) {
	cfg := testConfig()
	cfg.crossCheck = true
	cfg.NeighborHoldTime = 4 * time.Second
	cfg.TopologyHoldTime = 30 * time.Second
	// Host-driven link sensing: otherwise the HELLO below would itself
	// refresh the link (oracle mode adopts the advertised weight toward us)
	// and the expiry under test could never happen.
	cfg.LinkSensing = SenseHost
	n, _ := NewNode(1, cfg)
	now := time.Duration(0)
	n.UpdateLink(2, 5, now)
	n.HandleHello(&Hello{Origin: 2, Seq: 1, Links: []LinkInfo{
		{Neighbor: 1, Weight: 5}, {Neighbor: 3, Weight: 7},
	}}, now)
	r, err := n.Routes(now)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Lookup(3); !ok {
		t.Fatal("no two-hop route via fresh neighbor")
	}
	// Keep the HELLO table alive but let our own link expire: 2 stops being
	// direct, so both routes must go.
	now = 3 * time.Second
	n.HandleHello(&Hello{Origin: 2, Seq: 2, Links: []LinkInfo{
		{Neighbor: 1, Weight: 5}, {Neighbor: 3, Weight: 7},
	}}, now)
	now = 5 * time.Second
	r, err = n.Routes(now)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("table has %d routes after own-link expiry, want 0", r.Len())
	}
	// Relearn the link: the surviving HELLO table's links become eligible
	// again without a new HELLO.
	n.UpdateLink(2, 6, now)
	r, err = n.Routes(now)
	if err != nil {
		t.Fatal(err)
	}
	if route, ok := r.Lookup(3); !ok {
		t.Fatal("two-hop route did not return with the relearned link")
	} else if route.NextHop != 2 {
		t.Fatalf("two-hop route next hop = %d, want 2", route.NextHop)
	}
}

// A held routing graph keeps the node set it was laid out with: a TC that
// names a node the graph has never seen lays the graph out again and solves
// it from scratch, and a later TC that only reweights known pairs repairs it
// incrementally.
func TestRouteGraphRelaysOutForUnknownNode(t *testing.T) {
	cfg := testConfig()
	cfg.crossCheck = true
	n, err := NewNode(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Second
	n.UpdateLink(2, 3, now)
	n.HandleTC(&TC{Origin: 2, Seq: 1, ANSN: 1, Links: []LinkInfo{{Neighbor: 3, Weight: 4}}}, 2, now)
	if _, err := n.Routes(now); err != nil {
		t.Fatal(err)
	}
	stats, size := n.RebuildStats(), n.StateSize()

	n.HandleTC(&TC{Origin: 2, Seq: 2, ANSN: 2, Links: []LinkInfo{
		{Neighbor: 3, Weight: 4}, {Neighbor: 9, Weight: 2},
	}}, 2, now)
	r, err := n.Routes(now)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Lookup(9); !ok {
		t.Fatal("no route to the newly named node")
	}
	got, s := n.RebuildStats(), n.StateSize()
	if got.SPFFull != stats.SPFFull+1 || got.SPFIncremental != stats.SPFIncremental {
		t.Fatalf("an unknown node should re-lay the graph out: %+v, before %+v", got, stats)
	}
	if s.RouteGraphNodes != size.RouteGraphNodes+1 || s.DirtyPairs != 0 {
		t.Fatalf("after the re-layout: %+v, before %+v", s, size)
	}

	stats = got
	n.HandleTC(&TC{Origin: 2, Seq: 3, ANSN: 3, Links: []LinkInfo{
		{Neighbor: 3, Weight: 6}, {Neighbor: 9, Weight: 2},
	}}, 2, now)
	if _, err := n.Routes(now); err != nil {
		t.Fatal(err)
	}
	if got := n.RebuildStats(); got.SPFFull != stats.SPFFull || got.SPFIncremental != stats.SPFIncremental+1 {
		t.Fatalf("reweighting known pairs should repair incrementally: %+v, before %+v", got, stats)
	}
}
