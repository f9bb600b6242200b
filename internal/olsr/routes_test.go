package olsr

import (
	"fmt"
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

// TestRoutesMatchOracleAcrossHistories drives a node through long randomized
// protocol histories — link updates, HELLOs, TCs, idle time jumps that
// trigger soft-state expiry — and after every step holds its table to the
// oracle's: the routing graph resolvePair derives pair by pair, built edge by
// edge and solved by a canonical Dijkstra.
func TestRoutesMatchOracleAcrossHistories(t *testing.T) {
	metrics := []metric.Metric{metric.Delay(), metric.Bandwidth(), metric.Hop()}
	for _, m := range metrics {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				cfg := DefaultConfig(m)
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
					r, err := n.Routes(now)
					if err != nil {
						t.Fatalf("metric %s seed %d step %d: %v", m.Name(), seed, step, err)
					}
					ids, edges := routeOracle(n)
					checkRoutes(t, fmt.Sprintf("metric %s seed %d step %d", m.Name(), seed, step), r, oracleTable(t, n, ids, edges))
				}
			}
		})
	}
}

// TestRoutesAcrossExpiryAndRelearn pins directness: a neighbor's advertised
// two-hop links must drop out of the table when our own link to it expires
// (even though its HELLO table is still valid), and come back when the link
// is relearned.
func TestRoutesAcrossExpiryAndRelearn(t *testing.T) {
	cfg := testConfig()
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
