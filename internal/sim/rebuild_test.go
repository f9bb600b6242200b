package sim

import (
	"reflect"
	"testing"
	"time"

	"qolsr/internal/metric"
	"qolsr/internal/mpr"
	"qolsr/internal/olsr"
)

// convergedPair builds two identical networks running cfg from the same
// seed and converges both, so each can take a different rebuild path.
func convergedPair(t *testing.T, cfg olsr.Config) (a, b *Network) {
	t.Helper()
	converged := func() *Network {
		nw, err := NewNetwork(smallWorld(t, 23, 9), cfg, NetworkOptions{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		nw.Start()
		nw.Run(20 * time.Second)
		return nw
	}
	return converged(), converged()
}

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
	out := make(map[int64]olsr.Route, r.Len())
	for i := range r.Len() {
		dst, route := r.At(i)
		out[dst] = route
	}
	return out
}

// RebuildRoutes fanned across eight workers must produce exactly the tables
// the serial path produces, node for node, and agree on how many tables
// were actually rebuilt. This is the test CI runs under the race detector:
// the parallel path touches every node's scratch state concurrently and
// must stay free of shared mutable state. It runs on the classic control
// plane and on the optimized one (delta TCs, the fish-eye schedule and
// min-cover flood relays), whose delta chains, TTL scoping and second relay
// set must add no state the workers share.
func TestRebuildRoutesWorkersAgree(t *testing.T) {
	optimized := olsr.DefaultConfig(metric.Bandwidth())
	optimized.DeltaTC = true
	optimized.FisheyeTTLs = olsr.DefaultFisheyeTTLs()
	optimized.FloodRelay = mpr.MinCover
	t.Run("classic", func(t *testing.T) { checkWorkersAgree(t, olsr.DefaultConfig(metric.Bandwidth())) })
	t.Run("optimized", func(t *testing.T) { checkWorkersAgree(t, optimized) })
}

func checkWorkersAgree(t *testing.T, cfg olsr.Config) {
	serial, parallel := convergedPair(t, cfg)

	n1, err := serial.RebuildRoutes(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	n8, err := parallel.RebuildRoutes(nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n8 {
		t.Fatalf("rebuilt %d tables serially vs %d with 8 workers", n1, n8)
	}
	if n1 == 0 {
		t.Fatal("nothing was dirty; the fixture exercised no rebuild")
	}
	for x := int32(0); int(x) < serial.Phys.N(); x++ {
		ts, tp := tableOf(t, serial, x), tableOf(t, parallel, x)
		if len(ts) != len(tp) {
			t.Fatalf("node %d: table sizes %d vs %d", x, len(ts), len(tp))
		}
		for dst, rs := range ts {
			if rp, ok := tp[dst]; !ok || rp != rs {
				t.Fatalf("node %d route to %d: %+v serial vs %+v parallel", x, dst, rs, tp[dst])
			}
		}
	}
	if serial.RebuildTotals() != parallel.RebuildTotals() {
		t.Fatalf("rebuild totals diverge: %+v vs %+v", serial.RebuildTotals(), parallel.RebuildTotals())
	}

	// A second barrier with everything clean must be a no-op either way.
	if n, err := parallel.RebuildRoutes(nil, 8); err != nil || n != 0 {
		t.Fatalf("clean barrier rebuilt %d tables (err %v), want 0", n, err)
	}
}

// A subset barrier must only touch the named nodes' tables.
func TestRebuildRoutesSubset(t *testing.T) {
	nw := testNetwork(t, smallWorld(t, 23, 9), metric.Bandwidth())
	nw.Start()
	nw.Run(20 * time.Second)

	subset := []int32{0, 2}
	if _, err := nw.RebuildRoutes(subset, 4); err != nil {
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
// every node's topology rows (deadline 16 s) expire inside the barrier, in
// whichever goroutine rebuilds that node.
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
// since: workers then clear rows of the shared topology store concurrently,
// each its own member's. Run under the race detector; the outcome must
// equal the serial barrier's node for node.
func TestRebuildRoutesExpiringAtBarrier(t *testing.T) {
	serial, parallel := handDriven(t), handDriven(t)
	before := parallel.RebuildTotals()
	rowsBefore := 0
	for _, nd := range parallel.Nodes {
		rowsBefore += nd.StateSize().TopologyRows
	}

	n1, err := serial.RebuildRoutes(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	n8, err := parallel.RebuildRoutes(nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n8 || n1 == 0 {
		t.Fatalf("rebuilt %d tables serially vs %d with 8 workers, want equal and non-zero", n1, n8)
	}
	rowsAfter := 0
	for x := int32(0); int(x) < serial.Phys.N(); x++ {
		ss, sp := serial.Nodes[x].StateSize(), parallel.Nodes[x].StateSize()
		if ss != sp {
			t.Fatalf("node %d: state %+v serial vs %+v parallel", x, ss, sp)
		}
		rowsAfter += sp.TopologyRows
		if ts, tp := tableOf(t, serial, x), tableOf(t, parallel, x); !reflect.DeepEqual(ts, tp) {
			t.Fatalf("node %d: tables differ:\nserial:   %v\nparallel: %v", x, ts, tp)
		}
	}
	if rowsAfter == 0 || rowsAfter >= rowsBefore {
		t.Fatalf("%d topology rows before the barrier, %d after: want some, not all, to expire in it", rowsBefore, rowsAfter)
	}
	if serial.RebuildTotals() != parallel.RebuildTotals() {
		t.Fatalf("rebuild totals diverge: %+v vs %+v", serial.RebuildTotals(), parallel.RebuildTotals())
	}
	if s := parallel.RebuildTotals(); s.SPFFull != before.SPFFull+uint64(n8) {
		t.Fatalf("%d tables rebuilt at the barrier, but SPFFull went from %d to %d", n8, before.SPFFull, s.SPFFull)
	}
}
