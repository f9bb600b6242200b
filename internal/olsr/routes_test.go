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

// A table is immutable: held while its own node rebuilds, and while other
// members rebuild on changed id sets — a set of the same size with another
// id, a new origin heard, a row expired — it reads back identically, bit for
// bit. Members laid out over one id set share one destination column, the
// same backing array; a member whose set differs gets its own.
func TestRoutesSharedColumn(t *testing.T) {
	cfg := testConfig()
	cfg.LinkSensing = SenseHost
	field, err := NewNodes([]int64{0, 1, 2, 3}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Members 0, 1 and 3 link to every other member; member 2 to 0, 1 and 7,
	// so its id set has the others' size but not their ids. Link weights
	// move with time, so every call on a later instant rebuilds.
	peers := [][]int64{{1, 2, 3}, {0, 2, 3}, {0, 1, 7}, {0, 1, 2}}
	routes := func(m int, now time.Duration) *Routes {
		t.Helper()
		for _, p := range peers[m] {
			field[m].UpdateLink(p, float64(1+m)+float64(p)/4+now.Seconds(), now)
		}
		r, err := field[m].Routes(now)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	shared := func(a, b *Routes) bool { return len(a.dst) == len(b.dst) && &a.dst[0] == &b.dst[0] }
	type heldTable struct {
		name string
		r    *Routes
		rows []routeRow
	}
	var held []heldTable
	hold := func(name string, r *Routes) {
		if r.Len() == 0 {
			t.Fatalf("%s: empty table", name)
		}
		held = append(held, heldTable{name, r, routeRows(r)})
	}
	check := func(when string) {
		t.Helper()
		for _, h := range held {
			if got := routeRows(h.r); !rowsIdentical(got, h.rows) {
				t.Fatalf("after %s: %s reads %v, held %v", when, h.name, got, h.rows)
			}
		}
	}

	r0, r1, r3 := routes(0, 0), routes(1, 0), routes(3, 0)
	if !shared(r0, r1) || !shared(r0, r3) {
		t.Fatal("members over one id set do not share one column")
	}
	hold("member 0's first table", r0)
	hold("member 1's first table", r1)
	if r2 := routes(2, 0); shared(r2, r0) {
		t.Fatal("a member over another id set shares the column")
	}
	check("a member rebuilt over another set of the same size")

	if r := routes(0, time.Second); r == r0 || r.Serial() == r0.Serial() {
		t.Fatal("member 0 did not rebuild")
	}
	check("member 0 rebuilt")

	field[1].HandleTC(&TC{Origin: 3, ANSN: 1, Links: []LinkInfo{{9, 2}}}, 3, 2*time.Second)
	if _, ok := routes(1, 2*time.Second).Lookup(9); !ok {
		t.Fatal("member 1 has no route to the origin's new link")
	}
	check("member 1 heard a new origin")

	r1 = routes(1, 20*time.Second) // the TC row expired
	if _, ok := r1.Lookup(9); ok {
		t.Fatal("member 1 kept the expired row")
	}
	hold("member 1's table after expiry", r1)
	if r3 := routes(3, 20*time.Second); !shared(r1, r3) {
		t.Fatal("members over one id set do not share one column after expiry")
	}
	check("a row expired")
}
