package sim

import (
	"testing"
	"time"

	"qolsr/internal/geom"
	"qolsr/internal/metric"
	"qolsr/internal/olsr"
)

// These tests exercise the dataplane together with churn and mobility —
// the combination the scenario engine runs on: packets dropped over freshly
// failed links must hit the NoRoute accounting, and after soft-state expiry
// the protocol must reroute so the dataplane delivers again.

// diamondMobileSim deploys four protocol nodes in a square under a nearly
// static waypoint model (speeds so small the topology never changes within
// the test horizon):
//
//	0 (0,0) — 1 (80,0)
//	|             |
//	2 (0,80) — 3 (80,80)
//
// Radius 100 links the sides but not the 113-unit diagonals, so failing
// link 0-1 leaves the alternate route 0-2-3-1.
func diamondMobileSim(t *testing.T) *MobileSim {
	t.Helper()
	pts := []geom.Point{{X: 0, Y: 0}, {X: 80, Y: 0}, {X: 0, Y: 80}, {X: 80, Y: 80}}
	model := geom.Waypoint{
		Field:    geom.Field{Width: 200, Height: 200},
		MinSpeed: 1e-6,
		MaxSpeed: 2e-6,
		Pause:    time.Hour,
	}
	cfg := olsr.DefaultConfig(metric.Bandwidth())
	ms, err := NewMobileSim(model, pts, 100, cfg, NetworkOptions{Seed: 9}, time.Second, 21)
	if err != nil {
		t.Fatal(err)
	}
	if got := ms.NW.Phys.M(); got != 4 {
		t.Fatalf("diamond has %d links, want 4", got)
	}
	return ms
}

func TestDataplaneNoRouteAccountingAfterChurn(t *testing.T) {
	ms := diamondMobileSim(t)
	nw := ms.NW
	ms.Start()
	ms.Run(25 * time.Second)

	// Converged: 0 -> 1 goes over the direct link.
	var hops int
	nw.sendData(0, 1, func(ok bool, h int, _ time.Duration) {
		if !ok {
			t.Error("converged network failed to deliver 0->1")
		}
		hops = h
	})
	ms.Run(nw.Engine.Now() + time.Second)
	if hops != 1 {
		t.Errorf("direct delivery hops = %d, want 1", hops)
	}
	if nw.Data.Sent != 1 || nw.Data.Delivered != 1 || nw.Data.NoRoute != 0 {
		t.Fatalf("pre-churn stats = %+v", nw.Data)
	}

	// Fail the direct link. The routing tables are still stale, so the
	// immediate next packet dies at the dead hop and must be accounted as
	// NoRoute — not Delivered, not Expired.
	if err := nw.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	var delivered bool
	nw.sendData(0, 1, func(ok bool, _ int, _ time.Duration) { delivered = ok })
	ms.Run(nw.Engine.Now() + time.Second)
	if delivered {
		t.Error("packet delivered over a failed link")
	}
	if nw.Data.Sent != 2 || nw.Data.Delivered != 1 {
		t.Errorf("post-churn send/deliver stats = %+v", nw.Data)
	}
	if nw.Data.NoRoute != 1 {
		t.Errorf("NoRoute = %d, want 1 (stats %+v)", nw.Data.NoRoute, nw.Data)
	}
	if nw.Data.Expired != 0 {
		t.Errorf("Expired = %d, want 0", nw.Data.Expired)
	}
}

func TestDataplaneReconvergesAfterChurnUnderMobility(t *testing.T) {
	ms := diamondMobileSim(t)
	nw := ms.NW
	ms.Start()
	ms.Run(25 * time.Second)

	if err := nw.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	// Soft state: the stale link expires after the neighbor hold time
	// (6s) and the next HELLO/TC rounds advertise the detour. Run well
	// past both while mobility keeps rebuilding the (static) topology.
	before := ms.Rebuilds
	ms.Run(nw.Engine.Now() + 20*time.Second)
	if ms.Rebuilds <= before {
		t.Error("mobility refresh stopped during churn")
	}

	var delivered bool
	var hops int
	nw.sendData(0, 1, func(ok bool, h int, _ time.Duration) { delivered, hops = ok, h })
	ms.Run(nw.Engine.Now() + time.Second)
	if !delivered {
		t.Fatalf("network never rerouted 0->1 after churn (stats %+v)", nw.Data)
	}
	if hops != 3 {
		t.Errorf("rerouted hops = %d, want 3 (0-2-3-1)", hops)
	}

	// Restore: after fresh HELLOs re-measure the link, the direct route
	// comes back.
	if err := nw.RestoreLink(0, 1); err != nil {
		t.Fatal(err)
	}
	ms.Run(nw.Engine.Now() + 10*time.Second)
	nw.sendData(0, 1, func(ok bool, h int, _ time.Duration) { delivered, hops = ok, h })
	ms.Run(nw.Engine.Now() + time.Second)
	if !delivered || hops != 1 {
		t.Errorf("after restore delivered=%v hops=%d, want direct delivery", delivered, hops)
	}
}

func TestDeliverySweepCountsNoRouteDuringPartition(t *testing.T) {
	ms := diamondMobileSim(t)
	nw := ms.NW
	ms.Start()
	ms.Run(25 * time.Second)

	// Cut node 0 off entirely: both incident links fail.
	if err := nw.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := nw.FailLink(0, 2); err != nil {
		t.Fatal(err)
	}
	noRouteBefore := nw.Data.NoRoute
	// DeliverySweep normalises over physical connectivity, which still
	// includes node 0 (links exist, they are just down): stale routes
	// toward 0 die at the failed hops and land in NoRoute.
	ratio, _ := nw.DeliverySweep(0)
	if ratio == 1 {
		t.Error("sweep to an isolated node reported full delivery")
	}
	if nw.Data.NoRoute == noRouteBefore {
		t.Error("sweep over failed links did not account NoRoute drops")
	}
}
