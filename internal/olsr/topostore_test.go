package olsr

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestFieldMatchesStandaloneNodes is the layout differential: the same
// seeded HELLO / TC / TC-DELTA stream — with per-receiver drops, so members
// legitimately sit at different ansn and chain positions for one origin, a
// node that falls silent so rows expire, and identifiers on both sides of
// the dense window — drives a NewNodes field and a set of stand-alone
// NewNode twins. Sharing the origin-major store must be unobservable:
// every generated message, forwarding decision, routing table, selection
// and counter is equal node for node, with crossCheck holding each
// table against its from-scratch rebuild on both sides.
func TestFieldMatchesStandaloneNodes(t *testing.T) {
	// The field's window is its member count: 0..6 are inside, the rest
	// (including a negative one, which sorts below the window) overflow.
	ids := []int64{0, 1, 2, 3, 4, 5, 6, 40, 41, 1000, 5000, -3}
	cfg := testConfig()
	cfg.DeltaTC = true
	cfg.crossCheck = true
	field, err := NewNodes(ids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	alone := make([]*Node, len(ids))
	for i, id := range ids {
		if alone[i], err = NewNode(id, cfg); err != nil {
			t.Fatal(err)
		}
	}

	// Physical topology: a ring plus chords, symmetric integer weights.
	rng := rand.New(rand.NewSource(7))
	n := len(ids)
	weight := make([][]float64, n)
	for i := range weight {
		weight[i] = make([]float64, n)
	}
	link := func(a, b int) {
		if a != b {
			w := float64(1 + rng.Intn(5))
			weight[a][b], weight[b][a] = w, w
		}
	}
	for i := 0; i < n; i++ {
		link(i, (i+1)%n)
	}
	for k := 0; k < n; k++ {
		link(rng.Intn(n), rng.Intn(n))
	}

	const silent = 4 // falls silent for a while: its state expires everywhere
	isSilent := func(now time.Duration) bool { return now >= 20*time.Second && now < 45*time.Second }
	both := func(i int) [2]*Node { return [2]*Node{field[i], alone[i]} }
	divergedRows := false

	for step := 0; step < 160; step++ {
		now := time.Duration(step) * 500 * time.Millisecond
		if rng.Intn(12) == 0 {
			// Reweight one link: a topology change for the deltas to carry.
			a, b := rng.Intn(n), rng.Intn(n)
			if weight[a][b] != 0 {
				w := float64(1 + rng.Intn(5))
				weight[a][b], weight[b][a] = w, w
			}
		}
		for i := 0; i < n; i++ {
			if i == silent && isSilent(now) {
				continue
			}
			if step%4 == i%4 { // HELLO period 2 s, staggered
				for j := 0; j < n; j++ {
					if weight[i][j] != 0 {
						for _, nd := range both(i) {
							nd.UpdateLink(ids[j], weight[i][j], now)
						}
					}
				}
				h, h2 := field[i].GenerateHello(now), alone[i].GenerateHello(now)
				if !reflect.DeepEqual(h, h2) {
					t.Fatalf("step %d node %d: HELLOs differ:\n%+v\n%+v", step, ids[i], h, h2)
				}
				for j := 0; j < n; j++ {
					if weight[i][j] == 0 || rng.Intn(10) == 0 || (j == silent && isSilent(now)) {
						continue
					}
					for _, nd := range both(j) {
						nd.HandleHello(h, now)
					}
				}
			}
			if step%10 == i%10 { // TC period 5 s, staggered
				full, delta, _ := field[i].GenerateTCUpdate(now)
				full2, delta2, _ := alone[i].GenerateTCUpdate(now)
				if !reflect.DeepEqual(full, full2) || !reflect.DeepEqual(delta, delta2) {
					t.Fatalf("step %d node %d: TC emissions differ", step, ids[i])
				}
				for j := 0; j < n; j++ {
					if j == i || rng.Intn(4) == 0 || (j == silent && isSilent(now)) {
						continue // lost on the way to this receiver
					}
					sender := ids[(j+1)%n]
					var fwd [2]bool
					for k, nd := range both(j) {
						switch {
						case full != nil:
							fwd[k] = nd.HandleTC(full, sender, now)
						case delta != nil:
							fwd[k] = nd.HandleTCDelta(delta, sender, now)
						}
					}
					if fwd[0] != fwd[1] {
						t.Fatalf("step %d: node %d forwards %v in the field, %v alone", step, ids[j], fwd[0], fwd[1])
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			rf, err := field[i].Routes(now)
			if err != nil {
				t.Fatalf("step %d field node %d: %v", step, ids[i], err)
			}
			ra, err := alone[i].Routes(now)
			if err != nil {
				t.Fatalf("step %d stand-alone node %d: %v", step, ids[i], err)
			}
			if !routesIdentical(rf, ra) {
				t.Fatalf("step %d node %d: tables differ:\nfield: %v\nalone: %v", step, ids[i], rf.Table(), ra.Table())
			}
			if f, a := field[i].ANS(now), alone[i].ANS(now); !reflect.DeepEqual(f, a) {
				t.Fatalf("step %d node %d: ANS %v vs %v", step, ids[i], f, a)
			}
			if f, a := field[i].MPRSet(now), alone[i].MPRSet(now); !reflect.DeepEqual(f, a) {
				t.Fatalf("step %d node %d: MPR set %v vs %v", step, ids[i], f, a)
			}
			if f, a := field[i].RebuildStats(), alone[i].RebuildStats(); f != a {
				t.Fatalf("step %d node %d: rebuild stats %+v vs %+v", step, ids[i], f, a)
			}
			if f, a := field[i].StateSize(), alone[i].StateSize(); f != a {
				t.Fatalf("step %d node %d: state size %+v vs %+v", step, ids[i], f, a)
			}
		}
		// The fixture's point: two members of one block at different chain
		// positions for the same origin.
		for _, origin := range ids {
			a, b := rowOf(field[1], origin), rowOf(field[8], origin)
			if a != nil && b != nil && (a.ansn != b.ansn || a.chain != b.chain || a.synced != b.synced) {
				divergedRows = true
			}
		}
	}
	if !divergedRows {
		t.Error("no two members ever disagreed about an origin: the drops exercised nothing")
	}
	var resyncs uint64
	for _, nd := range field {
		resyncs += nd.RebuildStats().DeltaResyncs
	}
	if resyncs == 0 {
		t.Error("no delta chain ever broke: the drops exercised nothing")
	}
	if s := field[0].store; len(s.overflow) == 0 || len(s.overflow) >= len(ids) {
		t.Errorf("%d of %d origins in the overflow map, want some on each side of the window", len(s.overflow), len(ids))
	}
}

// TestDirtyListBounded: once a node has a routing graph, the dirty list
// never exceeds dirtyCap. Repeats compact away; more distinct pairs than the
// cap can hold make the node give its graph up, and the next query returns
// the from-scratch table (crossCheck compares it against the reference
// rebuild).
func TestDirtyListBounded(t *testing.T) {
	cfg := testConfig()
	cfg.crossCheck = true
	cfg.ExternalDupSuppression = true
	n, err := NewNode(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Second
	// Nodes 2 and 3 are in the graph from its first layout, so the pairs
	// flipped below are repairs of known nodes.
	flip := [2][]LinkInfo{
		{{Neighbor: 2, Weight: 4}, {Neighbor: 3, Weight: 4}},
		{{Neighbor: 2, Weight: 5}, {Neighbor: 3, Weight: 5}},
	}
	n.UpdateLink(1, 3, now)
	n.HandleTC(&TC{Origin: 1, Links: flip[1]}, 1, now)
	if s := n.StateSize(); s.DirtyPairs != 0 || s.RouteGraphNodes != 0 {
		t.Fatalf("recorded before the first query: %+v", s)
	}
	if _, err := n.Routes(now); err != nil {
		t.Fatal(err)
	}
	if s := n.StateSize(); s.DirtyPairs != 0 || s.RouteGraphNodes != 4 {
		t.Fatalf("after the first query: %+v", s)
	}

	// The same two pairs, changed far more often than the cap: compaction
	// keeps the list short and the graph alive.
	for i := 0; i < 3*dirtyCap; i++ {
		n.HandleTC(&TC{Origin: 1, Seq: uint16(i), Links: flip[i%2]}, 1, now)
		if s := n.StateSize(); s.DirtyPairs > dirtyCap {
			t.Fatalf("dirty list at %d pairs, cap %d", s.DirtyPairs, dirtyCap)
		}
	}
	if n.StateSize().RouteGraphNodes == 0 {
		t.Fatal("repeated pairs made the node drop its routing graph")
	}
	if _, err := n.Routes(now); err != nil {
		t.Fatal(err)
	}
	if s := n.RebuildStats(); s.SPFFull != 1 || s.SPFIncremental != 1 {
		t.Fatalf("repeats should repair incrementally: %+v", s)
	}

	// A chain 1-2-3-…, eight links an origin: more distinct pairs than the
	// cap holds.
	const origins = dirtyCap / 4
	for o := int64(1); o <= origins; o++ {
		var adv []LinkInfo
		for k := int64(1); k <= 8; k++ {
			adv = append(adv, LinkInfo{Neighbor: o + k, Weight: float64(1 + (o+k)%5)})
		}
		n.HandleTC(&TC{Origin: o, Seq: 1, ANSN: 1, Links: adv}, 1, now)
		if s := n.StateSize(); s.DirtyPairs > dirtyCap {
			t.Fatalf("dirty list at %d pairs, cap %d", s.DirtyPairs, dirtyCap)
		}
	}
	if s := n.StateSize(); s.RouteGraphNodes != 0 || s.DirtyPairs != 0 {
		t.Fatalf("overflow should drop the graph and stop recording: %+v", s)
	}
	r, err := n.Routes(now)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != origins+8 {
		t.Fatalf("table has %d routes, want %d", r.Len(), origins+8)
	}
	if s := n.RebuildStats(); s.SPFFull != 2 {
		t.Fatalf("overflow should force a full rebuild: %+v", s)
	}
	if s := n.StateSize(); s.DirtyPairs != 0 {
		t.Fatalf("staging list kept after the from-scratch build: %+v", s)
	}
	// And from there it repairs incrementally again.
	n.HandleTC(&TC{Origin: 1, Seq: 2, ANSN: 2, Links: flip[0]}, 1, now)
	if _, err := n.Routes(now); err != nil {
		t.Fatal(err)
	}
	if s := n.RebuildStats(); s.SPFFull != 2 || s.SPFIncremental != 2 {
		t.Fatalf("after the rebuild: %+v", s)
	}
}

// TestOriginChurnLeavesBoundedState: a node fed TCs from ever-new origins
// (a daemon on a network with churning membership, or under attack) holds
// state for the origins of the last few hold times, not for every origin it
// ever heard: topology rows, store slots, overflow-map keys and duplicate-
// suppression rows all stay bounded by the live window and drain to nothing
// once the stream stops.
func TestOriginChurnLeavesBoundedState(t *testing.T) {
	cfg := testConfig() // own duplicate suppression: dups is part of the check
	n, err := NewNode(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const (
		total     = 200_000
		perSecond = 1000
	)
	hold := cfg.TopologyHoldTime
	window := perSecond * int(hold/time.Second)
	// A row lives one hold; its slot waits for the next sweep, at most one
	// more hold away.
	bound := 2*window + 2*perSecond
	adv := []LinkInfo{{Neighbor: 7, Weight: 2}}
	s := n.store
	now := time.Duration(0)
	for i := 0; i < total; i++ {
		if i%perSecond == 0 {
			now += time.Second
		}
		origin := int64(1_000_000 + i)
		if i%2 == 1 {
			origin = -origin
		}
		n.HandleTC(&TC{Origin: origin, Seq: uint16(i), ANSN: 1, Links: adv}, 1, now)
		if i%perSecond != perSecond-1 {
			continue
		}
		size := n.StateSize()
		if size.TopologyRows > window+perSecond || size.DupRows > window+perSecond {
			t.Fatalf("after %d origins: %+v, live window %d", i+1, size, window)
		}
		if len(s.blocks) > bound || len(s.overflow) > bound {
			t.Fatalf("after %d origins: %d slots, %d overflow keys, bound %d", i+1, len(s.blocks), len(s.overflow), bound)
		}
	}
	if len(s.blocks) < window {
		t.Fatalf("only %d slots ever allocated: the stream exercised nothing", len(s.blocks))
	}
	// Silence: everything expires, and the next TC's sweep reclaims it.
	now += 3 * hold
	n.HandleTC(&TC{Origin: 5, Seq: 1, ANSN: 1, Links: adv}, 1, now)
	if size := n.StateSize(); size.TopologyRows != 1 || size.DupRows != 1 {
		t.Fatalf("after silence: %+v, want the one fresh origin", size)
	}
	if len(s.overflow) != 1 {
		t.Fatalf("after silence: %d overflow keys, want 1", len(s.overflow))
	}
	held := 0
	for _, rows := range s.blocks {
		if rows != nil {
			held++
		}
	}
	if held != 1 {
		t.Fatalf("after silence: %d blocks held, want 1", held)
	}
}

// TestSmallTable pins the neighbour table's contract: ascending walk,
// in-place put, and an each that survives deleting the visited key.
func TestSmallTable(t *testing.T) {
	var tbl smallTable[int]
	for _, k := range []int64{5, -2, 9, 1, 5} {
		*tbl.put(k, 0) += int(k)
	}
	if got := tbl.keys; !reflect.DeepEqual(got, []int64{-2, 1, 5, 9}) {
		t.Fatalf("keys = %v", got)
	}
	if v := tbl.get(5); v == nil || *v != 5 {
		t.Fatalf("get(5) = %v, want the overwritten entry", v)
	}
	if tbl.has(4) || tbl.get(4) != nil {
		t.Fatal("absent key found")
	}
	var seen []int64
	tbl.each(func(id int64, v *int) {
		seen = append(seen, id)
		if id == 1 || id == 9 {
			tbl.del(id)
		}
	})
	if !reflect.DeepEqual(seen, []int64{-2, 1, 5, 9}) {
		t.Fatalf("each visited %v", seen)
	}
	if !reflect.DeepEqual(tbl.keys, []int64{-2, 5}) || tbl.len() != 2 {
		t.Fatalf("after deletes: keys %v", tbl.keys)
	}
	tbl.del(7) // absent: no-op
	if tbl.len() != 2 {
		t.Fatal("deleting an absent key changed the table")
	}
}
