package olsr

import (
	"testing"
	"time"
)

// Two queries against unchanged state must return the same snapshot — the
// versioned cache's basic contract.
func TestRoutesCachedWhileStateUnchanged(t *testing.T) {
	n, _ := NewNode(1, testConfig())
	now := time.Duration(0)
	n.UpdateLink(2, 5, now)
	r1, err := n.Routes(now)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r1.Lookup(2); !ok {
		t.Fatal("no route to direct neighbor")
	}
	r2, err := n.Routes(now + time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("unchanged state rebuilt the routing table")
	}
}

// A refresh that re-announces identical content (the steady-state regime:
// the link oracle re-feeding stable weights, neighbors re-sending unchanged
// HELLOs) must not invalidate the cache.
func TestRoutesCacheSurvivesContentIdenticalRefresh(t *testing.T) {
	n, _ := NewNode(1, testConfig())
	now := time.Duration(0)
	n.UpdateLink(2, 5, now)
	h := &Hello{Origin: 2, Seq: 1, Links: []LinkInfo{
		{Neighbor: 1, Weight: 5}, {Neighbor: 3, Weight: 7},
	}}
	n.HandleHello(h, now)
	r1, err := n.Routes(now)
	if err != nil {
		t.Fatal(err)
	}
	// Same links re-announced later: deadlines move, content does not.
	now += time.Second
	n.UpdateLink(2, 5, now)
	n.HandleHello(&Hello{Origin: 2, Seq: 2, Links: h.Links}, now)
	r2, err := n.Routes(now)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("content-identical refresh invalidated the table")
	}
	// A weight change is a content change.
	now += time.Second
	n.UpdateLink(2, 6, now)
	r3, err := n.Routes(now)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r2 {
		t.Error("weight change did not invalidate the table")
	}
	if r, _ := r3.Lookup(2); r.Value != 6 {
		t.Errorf("route value = %v after weight change, want 6", r.Value)
	}
}

// The satellite requirement: a table must refresh after link expiry with no
// intervening message — pure passage of virtual time crosses the expiry
// watermark and invalidates the cache.
func TestRoutesRefreshAfterExpiryWithoutMessages(t *testing.T) {
	n, _ := NewNode(1, testConfig())
	now := time.Duration(0)
	n.UpdateLink(2, 5, now)
	n.HandleHello(&Hello{Origin: 2, Seq: 1, Links: []LinkInfo{
		{Neighbor: 1, Weight: 5}, {Neighbor: 3, Weight: 7},
	}}, now)
	r, err := n.Routes(now)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("initial table has %d routes, want 2 (neighbor and two-hop)", r.Len())
	}
	// Past the neighbor hold time (6s default), with no handler invoked in
	// between, the cached table must be dropped and recomputed empty.
	r, err = n.Routes(now + 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Errorf("table after expiry has %d routes, want 0", r.Len())
	}
}

// TC-learned topology expires independently of the neighborhood, on its own
// (longer) hold time, and must also invalidate the cached table when it goes.
func TestRoutesRefreshAfterTopologyExpiry(t *testing.T) {
	cfg := testConfig()
	n, _ := NewNode(4, cfg)
	now := time.Duration(0)
	refresh := func(at time.Duration, seq uint16) {
		n.UpdateLink(3, 9, at)
		n.HandleHello(&Hello{Origin: 3, Seq: seq, Links: []LinkInfo{
			{Neighbor: 2, Weight: 6}, {Neighbor: 4, Weight: 9},
		}}, at)
	}
	refresh(now, 1)
	n.HandleTC(&TC{Origin: 2, ANSN: 1, Seq: 1, Links: []LinkInfo{
		{Neighbor: 1, Weight: 4}, {Neighbor: 3, Weight: 6},
	}}, 3, now)
	r, err := n.Routes(now)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Lookup(1); !ok {
		t.Fatal("no TC-learned route to node 1")
	}
	// Keep the neighborhood alive past the topology hold time (15s): the
	// remote destination must drop out when its TC entry expires.
	for i := 1; i <= 4; i++ {
		refresh(time.Duration(i)*4*time.Second, uint16(i+1))
	}
	r, err = n.Routes(16 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Lookup(1); ok {
		t.Error("route via expired TC entry survived")
	}
	if _, ok := r.Lookup(3); !ok {
		t.Error("refreshed neighbor route lost with the TC expiry")
	}
}

// The expiry watermark must not suppress later deadlines once the earliest
// has fired: entries expiring at different times drop out in order.
func TestExpiryWatermarkStaggeredDeadlines(t *testing.T) {
	n, _ := NewNode(1, testConfig())
	n.UpdateLink(2, 5, 0)                     // expires at 6s
	n.UpdateLink(3, 7, 2*time.Second)         // expires at 8s
	r, _ := n.Routes(6500 * time.Millisecond) // first deadline passed
	if _, ok := r.Lookup(2); ok {
		t.Error("first link survived its deadline")
	}
	if _, ok := r.Lookup(3); !ok {
		t.Error("second link expired early")
	}
	r, _ = n.Routes(8500 * time.Millisecond)
	if r.Len() != 0 {
		t.Errorf("table has %d routes after all deadlines, want 0", r.Len())
	}
}

// A cached snapshot handed to a caller must stay internally consistent after
// the node moves on: rebuilds allocate fresh artifacts instead of mutating
// the old ones.
func TestRoutesSnapshotStableAfterRebuild(t *testing.T) {
	n, _ := NewNode(1, testConfig())
	now := time.Duration(0)
	n.UpdateLink(2, 5, now)
	old, err := n.Routes(now)
	if err != nil {
		t.Fatal(err)
	}
	oldRoute, ok := old.Lookup(2)
	if !ok {
		t.Fatal("no initial route")
	}
	n.UpdateLink(2, 9, now) // content change: rebuild on next query
	if _, err := n.Routes(now); err != nil {
		t.Fatal(err)
	}
	if r, ok := old.Lookup(2); !ok || r != oldRoute {
		t.Error("retained snapshot changed under a rebuild")
	}
}
