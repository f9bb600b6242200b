package sim

import (
	"maps"
	"reflect"
	"testing"
	"time"

	"qolsr/internal/metric"
	"qolsr/internal/olsr"
)

// tableOf snapshots one node's routing table.
func tableOf(t *testing.T, nw *Network, x int32) map[int64]olsr.Route {
	t.Helper()
	r, err := nw.Nodes[x].Routes(nw.Engine.Now())
	if err != nil {
		t.Fatal(err)
	}
	return routeMap(r)
}

// routeMap materialises a routing table as a map.
func routeMap(r *olsr.Routes) map[int64]olsr.Route {
	return maps.Collect(r.All())
}

// A subset barrier must only touch the named nodes' tables.
func TestRebuildRoutesSubset(t *testing.T) {
	nw := testNetwork(t, smallWorld(t, 23, 9), metric.Bandwidth())
	nw.Start()
	nw.Run(20 * time.Second)

	subset := []int32{0, 2}
	if _, err := nw.RebuildRoutes(subset, 1); err != nil {
		t.Fatal(err)
	}
	now := nw.Engine.Now()
	for _, x := range subset {
		if nw.Nodes[x].RoutesDirty(now) {
			t.Fatalf("node %d still dirty after subset rebuild", x)
		}
	}
	if n, err := nw.RebuildRoutes(subset, 1); err != nil || n != 0 {
		t.Fatalf("repeat subset barrier rebuilt %d (err %v), want 0", n, err)
	}
}

// handDriven builds an unstarted network and feeds its nodes one protocol
// history by hand, so nothing runs a node's expiry between its last ingest
// and the rebuild barrier: HELLO rounds keep the neighbourhoods alive, the
// even origins' TCs are ingested at 1 s and the odd ones' at 11 s, every
// table is built once at 12 s, and the clock then stands at 16.5 s — half of
// every node's topology rows (deadline 16 s) expire inside the barrier.
func handDriven(t *testing.T) *Network {
	t.Helper()
	nw := testNetwork(t, mediumWorld(t, 23), metric.Bandwidth())
	w, err := nw.Phys.Weights("bandwidth")
	if err != nil {
		t.Fatal(err)
	}
	n := int32(nw.Phys.N())
	helloRound := func() {
		now := nw.Engine.Now()
		for x := int32(0); x < n; x++ {
			for _, arc := range nw.Phys.Arcs(x) {
				nw.Nodes[x].UpdateLink(int64(nw.Phys.ID(arc.To)), w[arc.Edge], now)
			}
		}
		for x := int32(0); x < n; x++ {
			h := nw.Nodes[x].GenerateHello(now)
			for _, arc := range nw.Phys.Arcs(x) {
				nw.Nodes[arc.To].HandleHello(h, now)
			}
		}
	}
	floodTCs := func(parity int32) {
		now := nw.Engine.Now()
		for x := parity; x < n; x += 2 {
			tc := nw.Nodes[x].GenerateTC(now)
			if tc == nil {
				continue
			}
			for y := int32(0); y < n; y++ {
				if arcs := nw.Phys.Arcs(y); y != x && len(arcs) > 0 {
					nw.Nodes[y].HandleTC(tc, int64(nw.Phys.ID(arcs[0].To)), now)
				}
			}
		}
	}
	nw.Run(500 * time.Millisecond)
	helloRound()
	helloRound() // the second round announces the MPR choices of the first
	nw.Run(time.Second)
	floodTCs(0)
	nw.Run(6 * time.Second)
	helloRound()
	nw.Run(11 * time.Second)
	helloRound()
	floodTCs(1)
	nw.Run(12 * time.Second)
	helloRound()
	if _, err := nw.RebuildRoutes(nil, 1); err != nil {
		t.Fatal(err)
	}
	nw.Run(16500 * time.Millisecond)
	return nw
}

// The barrier is where soft state expires for nodes nobody has touched
// since: each rebuild clears its own member's rows of the shared topology
// store, which the members rebuilt after it read. The outcome must equal a
// twin field's whose nodes are queried one by one in reverse order, and
// SPFFull must rise by exactly the number of tables rebuilt.
func TestRebuildRoutesExpiringAtBarrier(t *testing.T) {
	nw, twin := handDriven(t), handDriven(t)
	before := nw.RebuildTotals()
	rowsBefore := 0
	for _, nd := range nw.Nodes {
		rowsBefore += nd.StateSize().TopologyRows
	}

	rebuilt, err := nw.RebuildRoutes(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt == 0 {
		t.Fatal("nothing was dirty; the fixture exercised no rebuild")
	}
	for x := len(twin.Nodes) - 1; x >= 0; x-- {
		tableOf(t, twin, int32(x))
	}
	rowsAfter := 0
	for x := int32(0); int(x) < nw.Phys.N(); x++ {
		sb, st := nw.Nodes[x].StateSize(), twin.Nodes[x].StateSize()
		if sb != st {
			t.Fatalf("node %d: state %+v at the barrier vs %+v queried alone", x, sb, st)
		}
		rowsAfter += sb.TopologyRows
		if tb, tt := tableOf(t, nw, x), tableOf(t, twin, x); !reflect.DeepEqual(tb, tt) {
			t.Fatalf("node %d: tables differ:\nbarrier: %v\nalone:   %v", x, tb, tt)
		}
	}
	if rowsAfter == 0 || rowsAfter >= rowsBefore {
		t.Fatalf("%d topology rows before the barrier, %d after: want some, not all, to expire in it", rowsBefore, rowsAfter)
	}
	if nw.RebuildTotals() != twin.RebuildTotals() {
		t.Fatalf("rebuild totals diverge: %+v vs %+v", nw.RebuildTotals(), twin.RebuildTotals())
	}
	if s := nw.RebuildTotals(); s.SPFFull != before.SPFFull+uint64(rebuilt) {
		t.Fatalf("%d tables rebuilt at the barrier, but SPFFull went from %d to %d", rebuilt, before.SPFFull, s.SPFFull)
	}
	if n, err := nw.RebuildRoutes(nil, 1); err != nil || n != 0 {
		t.Fatalf("clean barrier rebuilt %d tables (err %v), want 0", n, err)
	}
}
