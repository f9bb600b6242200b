package sim

import (
	"reflect"
	"testing"
	"time"

	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/olsr"
)

// lineNetwork builds a 4-node line 0-1-2-3 with known weights.
func lineNetwork(t *testing.T) *Network {
	t.Helper()
	g := graph.New(4)
	for i := int32(0); i < 3; i++ {
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
	return nw
}

func TestFailLinkValidation(t *testing.T) {
	nw := lineNetwork(t)
	if err := nw.FailLink(0, 3); err == nil {
		t.Error("nonexistent link failed")
	}
	if err := nw.RestoreLink(0, 3); err == nil {
		t.Error("nonexistent link restored")
	}
	if !nw.LinkUp(0, 1) {
		t.Error("fresh link down")
	}
	if err := nw.FailLink(1, 0); err != nil {
		t.Fatal(err)
	}
	if nw.LinkUp(0, 1) || nw.LinkUp(1, 0) {
		t.Error("failed link reported up (any orientation)")
	}
	if err := nw.RestoreLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if !nw.LinkUp(1, 0) {
		t.Error("restored link reported down")
	}
}

// TestChurnSymmetricOrdering is the regression lock for the down-map's
// orientation invariance: FailLink and RestoreLink called with (b, a) must
// behave exactly like (a, b) — the map is keyed by the sorted pair, so no
// orientation can leave a half-failed link behind.
func TestChurnSymmetricOrdering(t *testing.T) {
	nw := lineNetwork(t)
	check := func(a, b int32, up bool) {
		t.Helper()
		if nw.LinkUp(a, b) != up || nw.LinkUp(b, a) != up {
			t.Errorf("LinkUp(%d,%d)=%v LinkUp(%d,%d)=%v, want both %v",
				a, b, nw.LinkUp(a, b), b, a, nw.LinkUp(b, a), up)
		}
	}
	// Reversed fail, reversed restore.
	if err := nw.FailLink(2, 1); err != nil {
		t.Fatal(err)
	}
	check(1, 2, false)
	if err := nw.RestoreLink(2, 1); err != nil {
		t.Fatal(err)
	}
	check(1, 2, true)
	// Reversed fail, forward restore (and vice versa).
	if err := nw.FailLink(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := nw.RestoreLink(1, 2); err != nil {
		t.Fatal(err)
	}
	check(1, 2, true)
	if err := nw.FailLink(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := nw.RestoreLink(2, 1); err != nil {
		t.Fatal(err)
	}
	check(1, 2, true)
	// A reversed-order failure must actually stop traffic: node 0 cannot
	// reach node 3 across the failed middle link of the line.
	if err := nw.FailLink(2, 1); err != nil {
		t.Fatal(err)
	}
	nw.Start()
	nw.Run(30 * time.Second)
	done := false
	nw.sendData(0, 3, func(ok bool, _ int, _ time.Duration) {
		done = true
		if ok {
			t.Error("packet crossed a link failed with reversed ordering")
		}
	})
	nw.Run(nw.Engine.Now() + time.Duration(DefaultDataTTL+1)*nw.HopDelayBound())
	if !done {
		t.Error("probe packet never completed")
	}
	// RestoreAllLinks clears reversed-order failures too.
	nw.RestoreAllLinks()
	check(1, 2, true)
}

// After a mid-path link fails, soft state expires and routes change to use
// what remains; after restoration the network reconverges to the original
// routes.
func TestProtocolReactsToLinkFailure(t *testing.T) {
	// Square 0-1-2-3-0 so an alternative path exists.
	g := graph.New(4)
	for _, ab := range [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		e := mustAddEdge(g, ab[0], ab[1])
		if err := g.SetWeight("bandwidth", e, 5); err != nil {
			t.Fatal(err)
		}
	}
	cfg := olsr.DefaultConfig(metric.Bandwidth())
	nw, err := NewNetwork(g, cfg, NetworkOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	nw.Run(25 * time.Second)

	routeTo2 := func() (olsr.Route, bool) {
		table, err := nw.Nodes[0].Routes(nw.Engine.Now())
		if err != nil {
			t.Fatal(err)
		}
		return table.Lookup(2)
	}
	if _, ok := routeTo2(); !ok {
		t.Fatal("no initial route 0->2")
	}

	// Cut both of node 1's links: 0 must reach 2 via 3 only.
	if err := nw.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := nw.FailLink(1, 2); err != nil {
		t.Fatal(err)
	}
	nw.Run(nw.Engine.Now() + 30*time.Second)
	r, ok := routeTo2()
	if !ok {
		t.Fatal("no route 0->2 after failure")
	}
	if r.NextHop != 3 {
		t.Errorf("route 0->2 via %d after failure, want 3", r.NextHop)
	}
	// Node 1 must have disappeared from 0's neighbor-derived routes.
	table, err := nw.Nodes[0].Routes(nw.Engine.Now())
	if err != nil {
		t.Fatal(err)
	}
	if r1, ok := table.Lookup(1); ok && r1.NextHop == 1 {
		t.Error("0 still routes directly to failed neighbor 1")
	}

	// Restore: eventually the 2-hop route via 1 or 3 is back and node 1
	// is a neighbor again.
	if err := nw.RestoreLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := nw.RestoreLink(1, 2); err != nil {
		t.Fatal(err)
	}
	nw.Run(nw.Engine.Now() + 30*time.Second)
	table, err = nw.Nodes[0].Routes(nw.Engine.Now())
	if err != nil {
		t.Fatal(err)
	}
	if r1, ok := table.Lookup(1); !ok || r1.NextHop != 1 {
		t.Errorf("restored neighbor 1 not routed directly: %+v ok=%v", r1, ok)
	}
}

// Cache invalidation across a FailLink/RestoreLink cycle: the cached table
// must refresh when soft state expires after the failure, and refresh again
// (back to the original content — weights are stable) after restoration.
func TestRoutesCacheAcrossFailRestoreCycle(t *testing.T) {
	nw := lineNetwork(t)
	nw.Start()
	nw.Run(25 * time.Second)

	before, err := nw.Nodes[0].Routes(nw.Engine.Now())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := before.Lookup(3); !ok {
		t.Fatal("no initial route 0->3")
	}
	if err := nw.FailLink(1, 2); err != nil {
		t.Fatal(err)
	}
	nw.Run(nw.Engine.Now() + 40*time.Second)
	during, err := nw.Nodes[0].Routes(nw.Engine.Now())
	if err != nil {
		t.Fatal(err)
	}
	if during == before {
		t.Fatal("table not refreshed after link failure expired state")
	}
	if _, ok := during.Lookup(3); ok {
		t.Fatal("route across failed link survived")
	}
	if err := nw.RestoreLink(1, 2); err != nil {
		t.Fatal(err)
	}
	nw.Run(nw.Engine.Now() + 40*time.Second)
	after, err := nw.Nodes[0].Routes(nw.Engine.Now())
	if err != nil {
		t.Fatal(err)
	}
	if after == during {
		t.Fatal("table not refreshed after link restoration")
	}
	if !reflect.DeepEqual(routeMap(after), routeMap(before)) {
		t.Errorf("post-cycle table %v != pre-cycle table %v", routeMap(after), routeMap(before))
	}
}

// A failed bridge partitions the network: destinations across the bridge
// disappear from routing tables after expiry.
func TestPartitionExpiresRemoteState(t *testing.T) {
	nw := lineNetwork(t)
	nw.Start()
	nw.Run(25 * time.Second)
	table, err := nw.Nodes[0].Routes(nw.Engine.Now())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := table.Lookup(3); !ok {
		t.Fatal("no initial route 0->3")
	}
	if err := nw.FailLink(1, 2); err != nil {
		t.Fatal(err)
	}
	nw.Run(nw.Engine.Now() + 40*time.Second)
	table, err = nw.Nodes[0].Routes(nw.Engine.Now())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := table.Lookup(3); ok {
		t.Error("route across failed bridge survived expiry")
	}
}
