package olsr

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"qolsr/internal/graph"
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

// TestOriginChurnLeavesBoundedState: a node fed TCs from ever-new origins
// (a daemon on a network with churning membership, or under attack) holds
// state for the origins of the last few hold times, not for every origin it
// ever heard: topology rows, store slots and overflow-map keys all stay
// bounded by the live window and drain to nothing once the stream stops.
func TestOriginChurnLeavesBoundedState(t *testing.T) {
	cfg := testConfig()
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
		if size.TopologyRows > window+perSecond {
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
	if size := n.StateSize(); size.TopologyRows != 1 {
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
// 8 bytes and nothing the GC would have to trace, so the store's blocks stay
// pointer-free allocations the collector never scans.
func TestTopoRowLayout(t *testing.T) {
	checkFlat(t, "topoRow", topoRow(0), 8)
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

// stateTable checks the invariants of origin's state table in n's store and
// returns the block: every entry counts exactly the rows naming it, every
// free entry is empty, the table has at most one entry per member besides
// the reserved index 0, which no row names, and every present row's deadline
// is its entry's base plus its offset.
func stateTable(t *testing.T, n *Node, origin int64, when string) *topoBlock {
	t.Helper()
	s := n.store
	i := s.slot(origin)
	if i < 0 || s.blocks[i].rows == nil {
		return nil
	}
	b := &s.blocks[i]
	if len(b.states)-1 > s.members {
		t.Fatalf("%s: %d table entries for %d members", when, len(b.states)-1, s.members)
	}
	refs := make([]int32, len(b.states))
	for _, r := range b.rows {
		refs[r>>offsetBits]++
		if d := b.deadline(r); r != 0 && (d <= 0 || d != b.state(r).base+time.Duration(r&(1<<offsetBits-1))) {
			t.Fatalf("%s: row %#x reads deadline %v off base %v", when, uint64(r), d, b.state(r).base)
		}
	}
	for v, e := range b.states {
		if v > 0 && e.refs != refs[v] {
			t.Fatalf("%s: entry %d counts %d rows; %d rows name it", when, v, e.refs, refs[v])
		}
		if (v == 0 || e.refs == 0) && !reflect.DeepEqual(e, topoState{}) {
			t.Fatalf("%s: free entry %d holds %+v", when, v, e)
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
			stateTable(t, field[0], origin, fmt.Sprintf("TC %d", k))
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
			if s.origin(i) != 5 && (b.rows != nil || b.states != nil) {
				t.Fatalf("slot %d still holds a block (%d rows, %d table entries)", i, len(b.rows), len(b.states))
			}
		}
	})

	t.Run("delta", func(t *testing.T) {
		cfg := testConfig()
		cfg.DeltaTC = true
		field, alone := twins(cfg)
		name := func(i int) topoRow { _, r := field[i].store.row(field[i].member, origin); return *r >> offsetBits }
		deadline := func(i int) time.Duration { b, r := field[i].store.row(field[i].member, origin); return b.deadline(*r) }
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
			base := map[topoRow]topoRow{} // entry before → the entry its receivers name
			for i := range field {
				r := rowOf(field[i], origin)
				before, links, until := name(i), r.adv, deadline(i)
				applies := r.synced && r.chain+1 == index
				if (i+k)%3 == 0 {
					continue // missed: the next delta gaps this member
				}
				deliver([]*Node{field[i], alone[i]}, d, now)
				switch after := name(i); {
				case applies:
					if v, ok := base[before]; ok && v != after {
						t.Fatalf("delta %d: receivers from entry %d name %d and %d", k, before, v, after)
					} else if ok {
						shared++
					}
					base[before] = after
				case !sharedAdv(rowOf(field[i], origin).adv, links) && len(links) > 0 || deadline(i) != until || rowOf(field[i], origin).synced:
					t.Fatalf("delta %d member %d: gapped receiver moved from %v until %v to %+v until %v",
						k, i, links, until, *rowOf(field[i], origin), deadline(i))
				}
			}
			stateTable(t, field[0], origin, fmt.Sprintf("delta %d", k))
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

// refRow is a member's row about one origin as the store kept it while every
// row held its own fields: the deadline, the set, the ANSN and the chain
// position with its sync flag. TestStateTableMatchesReference holds the state
// table to it.
type refRow struct {
	expires              time.Duration
	adv                  []LinkInfo
	ansn, fullSeq, chain uint16
	synced               bool
}

// refMember is one member's rows under the reference, written by the rules
// HandleTC and HandleTCDelta apply, each message expiring what is stale first.
type refMember struct {
	id    int64
	hold  time.Duration
	rows  map[int64]*refRow
	stats RebuildStats // the ingest counters
}

// count counts a row's set going from old to adv.
func (m *refMember) count(old, adv []LinkInfo) {
	if slices.Equal(old, adv) {
		m.stats.AdvRefresh++
	} else {
		m.stats.AdvChange++
	}
}

func (m *refMember) expire(now time.Duration) {
	maps.DeleteFunc(m.rows, func(_ int64, r *refRow) bool { return r.expires <= now })
}

func (m *refMember) tc(t *TC, now time.Duration) {
	m.expire(now)
	r := m.rows[t.Origin]
	switch {
	case t.Origin == m.id:
		return
	case r == nil:
		r = &refRow{adv: normalizeAdv(t.Links)}
		m.rows[t.Origin] = r
		m.count(nil, r.adv)
	case ansnNewer(r.ansn, t.ANSN):
		return
	case sameAdv(r.adv, t.Links):
		if sharedAdv(r.adv, t.Links) {
			m.stats.AdvShared++
		}
		m.stats.AdvRefresh++
	default:
		old := r.adv
		r.adv = normalizeAdv(t.Links)
		m.count(old, r.adv)
	}
	r.expires, r.ansn, r.fullSeq, r.chain, r.synced = now+m.hold, t.ANSN, t.Seq, 0, true
}

func (m *refMember) delta(d *TCDelta, now time.Duration) {
	m.expire(now)
	r := m.rows[d.Origin]
	switch {
	case d.Origin == m.id || r == nil || !r.synced:
	case r.fullSeq == d.FullSeq && d.Index == r.chain+1:
		r.expires, r.ansn, r.chain = now+m.hold, d.ANSN, d.Index
		if len(d.Add)+len(d.Del) > 0 {
			old := r.adv
			r.adv = applyDeltaToAdv(r.adv, normalizeAdv(d.Add), normalizeDel(d.Del))
			m.count(old, r.adv)
		}
	case r.fullSeq != d.FullSeq || d.Index > r.chain:
		r.synced = false
		m.stats.DeltaResyncs++
	}
}

// table returns the routing table the reference's rows give member n: n's own
// links first, then each pair's smaller origin's advert, then its larger's.
func (m *refMember) table(t *testing.T, n *Node) *Routes {
	ids := []graph.NodeID{graph.NodeID(n.ID)}
	edges := map[[2]graph.NodeID]float64{}
	add := func(a, b int64, w float64) {
		if k := [2]graph.NodeID{graph.NodeID(min(a, b)), graph.NodeID(max(a, b))}; a != b && edges[k] == 0 {
			edges[k] = w
			ids = append(ids, k[0], k[1])
		}
	}
	for i, id := range n.links.keys {
		add(n.ID, id, n.links.vals[i].weight)
	}
	for _, smaller := range []bool{true, false} {
		for origin, r := range m.rows {
			for _, l := range r.adv {
				if (origin < l.Neighbor) == smaller {
					add(origin, l.Neighbor, l.Weight)
				}
			}
		}
	}
	slices.Sort(ids)
	return oracleTable(t, n, slices.Compact(ids), edges)
}

// tcOrigin is one origin's emission state in TestStateTableMatchesReference.
type tcOrigin struct {
	id                        int64
	seq, ansn, fullSeq, chain uint16
	adv                       []LinkInfo
}

// TestStateTableMatchesReference is the state table's differential: seeded
// full TCs (refreshing the shared set, re-sending its content in fresh
// storage, changing it, regressing the ANSN) and in-chain, empty, gapped,
// stale and mis-anchored deltas flood a ten-member field, each copy lost now
// and then, a group of members deaf long enough for their rows to expire, and
// time jumping past the hold. After every step each member's rows equal a
// reference member's that keeps the five fields per row — deadline, ANSN,
// set, chain position, sync — as do its row and link counts, its ingest
// counters and its Routes, and every block's table keeps its invariants.
func TestStateTableMatchesReference(t *testing.T) {
	ids := []int64{0, 1, 2, 3, 4, 5, 6, 7, 40, 1000} // 40 and 1000 overflow
	cfg := testConfig()
	cfg.LinkSensing = SenseHost
	cfg.NeighborHoldTime = 1000 * time.Hour // own links for Routes, never stale
	field, err := NewNodes(ids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	refs := make([]*refMember, len(ids))
	for i, n := range field {
		refs[i] = &refMember{id: n.ID, hold: cfg.TopologyHoldTime, rows: map[int64]*refRow{}}
		for k := 0; k < 3; k++ {
			n.UpdateLink(int64(rng.Intn(12)), float64(1+rng.Intn(4)), 0)
		}
	}
	var origins []*tcOrigin
	for _, id := range []int64{0, 3, 6, 40, 1000, -3, 11, 5000} {
		origins = append(origins, &tcOrigin{id: id, adv: normalizeAdv(randomLinks(rng, 12))})
	}
	var kinds [8]int
	now := time.Second
	for step := 0; step < 3000; step++ {
		now += time.Duration(10+rng.Intn(1500)) * time.Millisecond
		if rng.Intn(200) == 0 {
			now += 2 * cfg.TopologyHoldTime
		}
		o := origins[rng.Intn(len(origins))]
		o.seq++
		var full *TC
		var d *TCDelta
		switch k := rng.Intn(10); {
		case k < 4:
			switch rng.Intn(4) {
			case 0:
				o.adv, o.ansn = normalizeAdv(randomLinks(rng, 12)), o.ansn+1
			case 1:
				o.adv = slices.Clone(o.adv)
			}
			ansn := o.ansn
			if rng.Intn(8) == 0 {
				ansn -= uint16(1 + rng.Intn(3)) // a regression: stale where a newer row is held
				kinds[0]++
			}
			o.fullSeq, o.chain = o.seq, 0
			full = &TC{Origin: o.id, Seq: o.seq, ANSN: ansn, Links: o.adv}
			kinds[1]++
		default:
			d = &TCDelta{Origin: o.id, Seq: o.seq, FullSeq: o.fullSeq, Index: o.chain + 1}
			switch rng.Intn(8) {
			case 0: // a lost predecessor: a gap
				o.chain++
				d.Index++
				kinds[2]++
			case 1: // a reordered old delta: stale
				d.Index = uint16(rng.Intn(int(o.chain) + 1))
				kinds[3]++
			case 2: // anchored on a full TC the receivers never took
				d.FullSeq -= uint16(1 + rng.Intn(2))
				kinds[4]++
			case 3, 4: // the keepalive
				kinds[5]++
			default:
				d.Add = randomLinks(rng, 12)
				for _, l := range o.adv {
					if rng.Intn(3) == 0 {
						d.Del = append(d.Del, l.Neighbor)
					}
				}
				o.adv = applyDeltaToAdv(o.adv, normalizeAdv(d.Add), normalizeDel(d.Del))
				o.ansn++
				kinds[6]++
			}
			if d.Index == o.chain+1 {
				o.chain++
			}
			d.ANSN = o.ansn
		}
		for i, n := range field {
			if rng.Intn(4) == 0 || (i < 3 && step >= 1000 && step < 1200) {
				continue // lost, or deaf
			}
			// A flood reaches the members at different instants, in no
			// order of theirs.
			at := now - time.Duration(rng.Intn(10))*time.Millisecond
			if full != nil {
				n.HandleTC(full, o.id, at)
				refs[i].tc(full, at)
			} else {
				n.HandleTCDelta(d, o.id, at)
				refs[i].delta(d, at)
			}
		}
		for i, n := range field {
			when := fmt.Sprintf("step %d member %d", step, n.ID)
			r, _ := n.Routes(now)
			refs[i].expire(now)
			links := 0
			for _, o := range origins {
				ref, got := refs[i].rows[o.id], rowOf(n, o.id)
				if (ref == nil) != (got == nil) {
					t.Fatalf("%s, origin %d: row %+v, reference %+v", when, o.id, got, ref)
				}
				if ref == nil {
					continue
				}
				b, row := n.store.row(n.member, o.id)
				if d := b.deadline(*row); d != ref.expires || got.ansn != ref.ansn || !slices.Equal(got.adv, ref.adv) ||
					got.synced != ref.synced || got.fullSeq != ref.fullSeq || got.chain != ref.chain {
					t.Fatalf("%s, origin %d: row %+v until %v, reference %+v", when, o.id, *got, d, *ref)
				}
				links += len(ref.adv)
			}
			if n.topoRows != len(refs[i].rows) || n.topoLinks != links {
				t.Fatalf("%s: %d rows of %d links, reference %d of %d", when, n.topoRows, n.topoLinks, len(refs[i].rows), links)
			}
			got, want := n.RebuildStats(), refs[i].stats
			got.Selections, got.SPFFull = 0, 0
			if got != want {
				t.Fatalf("%s: counters %+v, reference %+v", when, got, want)
			}
			if want := refs[i].table(t, n); !routesIdentical(r, want) {
				t.Fatalf("%s: table %v, reference %v", when, routeMap(r), routeMap(want))
			}
		}
		for _, o := range origins {
			stateTable(t, field[0], o.id, fmt.Sprintf("step %d origin %d", step, o.id))
		}
	}
	t.Logf("regressions, fulls, gaps, stale, mis-anchored, keepalives, changes: %v", kinds[:7])
	for k, c := range kinds[:7] {
		if c == 0 {
			t.Errorf("message kind %d never sent: the run exercised less than it claims", k)
		}
	}
}

// TestStateEntryOverflow: a row's deadline is an offset of under 2^48 ns from
// its entry's base, so the same message taken 2^48 ns apart takes a second
// entry, one taken a nanosecond sooner joins the first, and every deadline is
// exact.
func TestStateEntryOverflow(t *testing.T) {
	cfg := testConfig()
	field, err := NewNodes([]int64{0, 1, 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc := &TC{Origin: 9, Seq: 1, ANSN: 1, Links: []LinkInfo{{Neighbor: 3, Weight: 1}}}
	const span = time.Duration(1) << offsetBits
	at := []time.Duration{time.Second, time.Second + span - 1, time.Second + span}
	for i, now := range at {
		field[i].HandleTC(tc, 9, now)
	}
	b := stateTable(t, field[0], 9, "after three members took the TC")
	if b.rows[0]>>offsetBits != b.rows[1]>>offsetBits || b.rows[2]>>offsetBits == b.rows[0]>>offsetBits {
		t.Fatalf("members name entries %d, %d, %d; want the first two to share one", b.rows[0]>>offsetBits, b.rows[1]>>offsetBits, b.rows[2]>>offsetBits)
	}
	for i, now := range at {
		if d := b.deadline(b.rows[i]); d != now+cfg.TopologyHoldTime {
			t.Errorf("member %d: deadline %v, want %v", i, d, now+cfg.TopologyHoldTime)
		}
	}
}

// BenchmarkHandleTCField measures the steady-state refresh in a 1,500-member
// field that has heard every origin: an op is one member taking one origin's
// periodic TC (re-advertising the shared set), the origins flood in turn,
// each once per TC interval, so no row expires and each member's expiry scans
// run as they would. It reports the bytes of rows a member holds.
func BenchmarkHandleTCField(b *testing.B) {
	const members = 1500
	ids := make([]int64, members)
	for i := range ids {
		ids[i] = int64(i)
	}
	cfg := testConfig()
	field, err := NewNodes(ids, cfg)
	if err != nil {
		b.Fatal(err)
	}
	tcs := make([]TC, members)
	for o := range tcs {
		tcs[o] = TC{Origin: int64(o), ANSN: 1, Links: normalizeAdv([]LinkInfo{
			{Neighbor: int64((o + 1) % members), Weight: 2}, {Neighbor: int64((o + 7) % members), Weight: 3}})}
	}
	step, now := cfg.TCInterval/members, time.Duration(0)
	for o := range tcs { // every origin heard by every member
		now += step
		for _, n := range field {
			n.HandleTC(&tcs[o], int64(o), now)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, m := (i/members)%members, i%members
		if m == 0 {
			tcs[o].Seq++
			now += step
		}
		field[m].HandleTC(&tcs[o], int64(o), now)
	}
	b.StopTimer()
	var rows uintptr
	for _, blk := range field[0].store.blocks {
		rows += uintptr(len(blk.rows)) * unsafe.Sizeof(blk.rows[0])
	}
	b.ReportMetric(float64(rows)/members, "row-B/member")
}
