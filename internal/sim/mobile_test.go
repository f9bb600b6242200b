package sim

import (
	"math/rand"
	"testing"
	"time"

	"qolsr/internal/geom"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/olsr"
)

func TestPairWeightStableAndSymmetric(t *testing.T) {
	a := PairWeight(5, 3, 9)
	if a != PairWeight(5, 9, 3) {
		t.Error("pair weight not symmetric")
	}
	if a != PairWeight(5, 3, 9) {
		t.Error("pair weight not deterministic")
	}
	if a < 1 || a > 10 {
		t.Errorf("pair weight %v outside {1..10}", a)
	}
	if PairWeight(5, 3, 9) == PairWeight(6, 3, 9) && PairWeight(5, 1, 2) == PairWeight(6, 1, 2) && PairWeight(5, 4, 7) == PairWeight(6, 4, 7) {
		t.Error("seed has no effect")
	}
}

func TestSetTopologyValidation(t *testing.T) {
	g := graph.New(3)
	e := mustAddEdge(g, 0, 1)
	if err := g.SetWeight("bandwidth", e, 2); err != nil {
		t.Fatal(err)
	}
	cfg := olsr.DefaultConfig(metric.Bandwidth())
	nw, err := NewNetwork(g, cfg, NetworkOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.SetTopology(graph.New(4)); err == nil {
		t.Error("node-count change accepted")
	}
	noChannel := graph.New(3)
	mustAddEdge(noChannel, 0, 2)
	if err := nw.SetTopology(noChannel); err == nil {
		t.Error("missing channel accepted")
	}
	ok := graph.New(3)
	e2 := mustAddEdge(ok, 0, 2)
	if err := ok.SetWeight("bandwidth", e2, 7); err != nil {
		t.Fatal(err)
	}
	if err := nw.SetTopology(ok); err != nil {
		t.Fatalf("valid swap rejected: %v", err)
	}
	if _, found := nw.Phys.EdgeBetween(0, 2); !found {
		t.Error("swap did not take effect")
	}
}

// End-to-end mobility: nodes move, topologies change, and the protocol keeps
// tracking its *current* neighborhood — neighbors learned long ago and moved
// away must be expired, fresh ones must be present.
func TestMobileSimProtocolTracksTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 25
	model := geom.Waypoint{
		Field:    geom.Field{Width: 300, Height: 300},
		MinSpeed: 8,
		MaxSpeed: 16,
		Pause:    2 * time.Second,
	}
	initial := make([]geom.Point, n)
	for i := range initial {
		initial[i] = geom.Point{X: rng.Float64() * 300, Y: rng.Float64() * 300}
	}
	cfg := olsr.DefaultConfig(metric.Bandwidth())
	ms, err := NewMobileSim(model, initial, 100, cfg, NetworkOptions{Seed: 7}, 2*time.Second, 99)
	if err != nil {
		t.Fatal(err)
	}
	ms.Start()
	ms.Run(90 * time.Second)
	if ms.Rebuilds < 30 {
		t.Errorf("only %d topology rebuilds in 90s", ms.Rebuilds)
	}

	// Compare each node's HELLO link list with current physical truth:
	// allow lag of a couple hold-times, but demand strong overlap.
	now := ms.NW.Engine.Now()
	matches, total := 0, 0
	for i, node := range ms.NW.Nodes {
		h := node.GenerateHello(now)
		current := map[int64]bool{}
		for _, arc := range ms.NW.Phys.Arcs(int32(i)) {
			current[int64(ms.NW.Phys.ID(arc.To))] = true
		}
		for _, l := range h.Links {
			total++
			if current[l.Neighbor] {
				matches++
			}
		}
	}
	if total == 0 {
		t.Fatal("no links known at all")
	}
	if ratio := float64(matches) / float64(total); ratio < 0.7 {
		t.Errorf("only %.0f%% of known links are physically current", 100*ratio)
	}
}

// Under mobility with no pause and brisk speeds, routing tables keep being
// rebuilt and deliver to current destinations most of the time.
func TestMobileSimRoutingStillWorks(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 20
	model := geom.Waypoint{
		Field:    geom.Field{Width: 250, Height: 250},
		MinSpeed: 5,
		MaxSpeed: 10,
		Pause:    0,
	}
	initial := make([]geom.Point, n)
	for i := range initial {
		initial[i] = geom.Point{X: rng.Float64() * 250, Y: rng.Float64() * 250}
	}
	cfg := olsr.DefaultConfig(metric.Bandwidth())
	ms, err := NewMobileSim(model, initial, 100, cfg, NetworkOptions{Seed: 3}, time.Second, 42)
	if err != nil {
		t.Fatal(err)
	}
	ms.Start()
	ms.Run(60 * time.Second)

	now := ms.NW.Engine.Now()
	reach := graph.Reachable(ms.NW.Phys, 0)
	table, err := ms.NW.Nodes[0].Routes(now)
	if err != nil {
		t.Fatal(err)
	}
	reachable, routed := 0, 0
	for x := 1; x < n; x++ {
		if !reach[x] {
			continue
		}
		reachable++
		if _, ok := table.Lookup(int64(x)); ok {
			routed++
		}
	}
	if reachable == 0 {
		t.Skip("node 0 isolated in this realisation")
	}
	if ratio := float64(routed) / float64(reachable); ratio < 0.6 {
		t.Errorf("routes to only %.0f%% of reachable nodes under mobility", 100*ratio)
	}
}
