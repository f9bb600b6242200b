package olsr

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
// and counter is equal node for node.
func TestFieldMatchesStandaloneNodes(t *testing.T) {
	// The field's window is its member count: 0..6 are inside, the rest
	// (including a negative one, which sorts below the window) overflow.
	ids := []int64{0, 1, 2, 3, 4, 5, 6, 40, 41, 1000, 5000, -3}
	cfg := testConfig()
	cfg.DeltaTC = true
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
				t.Fatalf("step %d node %d: tables differ:\nfield: %v\nalone: %v", step, ids[i], routeMap(rf), routeMap(ra))
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
			if a != nil && b != nil && (a.ansn != b.ansn || a.chain != b.chain || a.synced() != b.synced()) {
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
	for _, b := range s.blocks {
		if b.rows != nil {
			held++
		}
	}
	if held != 1 {
		t.Fatalf("after silence: %d blocks held, want 1", held)
	}
}

// TestTopoRowLayout pins the row that the store holds members × origins of:
// 16 bytes and nothing the GC would have to trace, so the store's blocks stay
// pointer-free allocations the collector never scans.
func TestTopoRowLayout(t *testing.T) {
	checkFlat(t, "topoRow", topoRow{}, 16)
}

// checkFlat fails unless v's type is size bytes and holds no pointer.
func checkFlat(t *testing.T, name string, v any, size uintptr) {
	t.Helper()
	if got := reflect.TypeOf(v).Size(); got != size {
		t.Errorf("%s is %d bytes, want %d", name, got, size)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("%s is a %s: %s must hold no pointer", path, typ.Kind(), name)
		}
	}
	walk(name, reflect.TypeOf(v))
}

// advTable checks the invariants of origin's set table in n's store and
// returns the block: every named entry is counted by exactly the rows naming
// it (expired rows keep their names), every free entry is empty, and the
// table has at most one entry per member besides the empty set.
func advTable(t *testing.T, n *Node, origin int64, when string) *topoBlock {
	t.Helper()
	s := n.store
	i := s.slot(origin)
	if i < 0 || s.blocks[i].rows == nil {
		return nil
	}
	b := &s.blocks[i]
	if len(b.advs) > s.members+1 {
		t.Fatalf("%s: %d table entries for %d members", when, len(b.advs), s.members)
	}
	refs := make([]int32, len(b.advs))
	for _, r := range b.rows {
		refs[r.ver&^syncedBit]++
	}
	for v := 1; v < len(b.advs); v++ {
		if e := b.advs[v]; e.refs != refs[v] || (e.refs == 0) != (e.adv == nil) {
			t.Fatalf("%s: entry %d counts %d rows and holds %d links; %d rows name it", when, v, e.refs, len(e.adv), refs[v])
		}
	}
	return b
}

// TestAdvVersionsBounded drives one origin's block in a 64-member field with
// 10,000 TCs, each carrying a freshly allocated set, while a rotating third
// of the members miss each flood and a group of members goes deaf long
// enough for their rows to expire. The set table must stay bounded — a
// version no row names is reused, not leaked — with every count exact, every
// member must hold the very slice a stand-alone node fed the same messages
// holds, and after three holds of silence the block and its table must be
// gone. The delta leg checks that the receivers of one delta from one version
// share one result entry, and that a gapped receiver keeps its pre-gap
// version.
func TestAdvVersionsBounded(t *testing.T) {
	const members, origin = 64, 1000 // origin outside the window: an overflow slot
	ids := make([]int64, members)
	for i := range ids {
		ids[i] = int64(i)
	}
	twins := func(cfg Config) (field, alone []*Node) {
		field, err := NewNodes(ids, cfg)
		if err != nil {
			t.Fatal(err)
		}
		alone = make([]*Node, members)
		for i, id := range ids {
			if alone[i], err = NewNode(id, cfg); err != nil {
				t.Fatal(err)
			}
		}
		return field, alone
	}
	deliver := func(to []*Node, m any, now time.Duration) {
		for _, nd := range to {
			switch m := m.(type) {
			case *TC:
				nd.HandleTC(m, origin, now)
			case *TCDelta:
				nd.HandleTCDelta(m, origin, now)
			}
		}
	}
	set := func(k int) []LinkInfo { // fresh storage; content repeats every third TC
		return []LinkInfo{{Neighbor: 1, Weight: float64(1 + k%3)}, {Neighbor: int64(2 + k%2), Weight: 4}}
	}

	t.Run("full", func(t *testing.T) {
		cfg := testConfig()
		field, alone := twins(cfg)
		hold := cfg.TopologyHoldTime
		const deafFrom, deafTo = 3000, 3400 // 40 s: the deaf members' rows expire
		now := time.Duration(0)
		for k := 0; k < 10_000; k++ {
			now += 100 * time.Millisecond
			tc := &TC{Origin: origin, Seq: uint16(k), ANSN: uint16(k / 7), Links: set(k)}
			for i := range field {
				if (i+k)%3 == 0 || (i < 8 && k >= deafFrom && k < deafTo) {
					continue
				}
				deliver([]*Node{field[i], alone[i]}, tc, now)
			}
			if k%50 == 0 { // routing lookups expire stale rows in member context
				for i := range field {
					field[i].Routes(now)
					alone[i].Routes(now)
				}
			}
			advTable(t, field[0], origin, fmt.Sprintf("TC %d", k))
			for i := range field {
				if f, a := linksOf(field[i], origin), linksOf(alone[i], origin); !sharedAdv(f, a) && len(f)+len(a) > 0 {
					t.Fatalf("TC %d member %d: holds %v, stand-alone twin %v", k, i, f, a)
				}
			}
		}
		if got := field[0].StateSize().TopologyRows; got != 1 {
			t.Fatalf("member 0 holds %d rows, want the origin's", got)
		}
		// Silence: every member expires its row, and the next sweep frees
		// the block, its table and the overflow slot.
		now += 3 * hold
		for _, nd := range field {
			nd.Routes(now)
		}
		field[0].HandleTC(&TC{Origin: 5, Seq: 1, ANSN: 1, Links: set(0)}, 5, now)
		s := field[0].store
		if s.slot(origin) >= 0 {
			t.Fatal("the silent origin still has a slot")
		}
		for i, b := range s.blocks {
			if s.origin(i) != 5 && (b.rows != nil || b.advs != nil) {
				t.Fatalf("slot %d still holds a block (%d rows, %d table entries)", i, len(b.rows), len(b.advs))
			}
		}
	})

	t.Run("delta", func(t *testing.T) {
		cfg := testConfig()
		cfg.DeltaTC = true
		field, alone := twins(cfg)
		name := func(i int) uint16 { return rowOf(field[i], origin).ver &^ syncedBit }
		now, seq, fullSeq, index, shared := time.Duration(0), uint16(0), uint16(0), uint16(0), 0
		for k := 0; k < 10_000; k++ {
			now += 100 * time.Millisecond
			seq++
			if k%5 == 0 { // a full TC every fifth emission: everyone resynchronises
				fullSeq, index = seq, 0
				full := &TC{Origin: origin, Seq: seq, ANSN: seq, Links: set(k)}
				deliver(field, full, now)
				deliver(alone, full, now)
				continue
			}
			index++
			d := &TCDelta{Origin: origin, Seq: seq, ANSN: seq, FullSeq: fullSeq, Index: index,
				Add: []LinkInfo{{Neighbor: int64(10 + k%4), Weight: float64(k % 5)}}, Del: []int64{int64(10 + (k+1)%4)}}
			before := make([]uint16, members)
			base := map[uint16]uint16{} // base version → the version its receivers name
			for i := range field {
				r := rowOf(field[i], origin)
				before[i] = name(i)
				applies := r.synced() && r.chain+1 == index
				if (i+k)%3 == 0 {
					continue // missed: the next delta gaps this member
				}
				deliver([]*Node{field[i], alone[i]}, d, now)
				switch after := name(i); {
				case applies:
					if v, ok := base[before[i]]; ok && v != after {
						t.Fatalf("delta %d: receivers from version %d name %d and %d", k, before[i], v, after)
					} else if ok {
						shared++
					}
					base[before[i]] = after
				case after != before[i] || rowOf(field[i], origin).synced():
					t.Fatalf("delta %d member %d: gapped receiver went from version %d to %d (synced %v)",
						k, i, before[i], after, rowOf(field[i], origin).synced())
				}
			}
			advTable(t, field[0], origin, fmt.Sprintf("delta %d", k))
			for i := range field {
				if f, a := linksOf(field[i], origin), linksOf(alone[i], origin); !slices.Equal(f, a) {
					t.Fatalf("delta %d member %d: holds %v, stand-alone twin %v", k, i, f, a)
				}
			}
		}
		if shared == 0 {
			t.Fatal("no two receivers ever applied one delta from one version: the leg exercised nothing")
		}
	})
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
