package olsr

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"qolsr/internal/metric"
)

// deltaPair wires emitter a (ID 1) to neighbor b (ID 2) with a settled
// 2-hop view so a advertises its link to b, and returns a fresh receiver r
// (ID 9) plus the settled clock.
func deltaPair(t *testing.T, cfg Config) (a, r *Node, now time.Duration) {
	t.Helper()
	a, err := NewNode(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewNode(2, testConfig())
	c, _ := NewNode(3, testConfig())
	now = 0
	a.UpdateLink(2, 5, now)
	b.UpdateLink(1, 5, now)
	b.UpdateLink(3, 7, now)
	c.UpdateLink(2, 7, now)
	for round := 0; round < 2; round++ {
		now += 100 * time.Millisecond
		ha, hb, hc := a.GenerateHello(now), b.GenerateHello(now), c.GenerateHello(now)
		b.HandleHello(ha, now)
		a.HandleHello(hb, now)
		c.HandleHello(hb, now)
		b.HandleHello(hc, now)
	}
	r, _ = NewNode(9, testConfig())
	return a, r, now
}

func TestGenerateTCUpdateDeltaChain(t *testing.T) {
	cfg := testConfig()
	cfg.DeltaTC = true
	a, r, now := deltaPair(t, cfg)

	full, d, ttl := a.GenerateTCUpdate(now)
	if full == nil || d != nil || ttl != 0 {
		t.Fatalf("first emission = (%v, %v, %d), want a full at unlimited scope", full, d, ttl)
	}
	r.HandleTC(full, 1, now)

	// Steady state: the next emissions are empty keepalive deltas chained
	// on the full.
	now += 100 * time.Millisecond
	f2, d2, _ := a.GenerateTCUpdate(now)
	if f2 != nil || d2 == nil {
		t.Fatal("steady-state emission was not a delta")
	}
	if d2.FullSeq != full.Seq || d2.Index != 1 || len(d2.Add) != 0 || len(d2.Del) != 0 {
		t.Fatalf("keepalive delta = %+v, want empty at (%d, 1)", d2, full.Seq)
	}
	if d2.Seq == full.Seq {
		t.Fatal("delta reused the full's flooding seq")
	}
	r.HandleTCDelta(d2, 1, now)

	// A reweighted link travels as a one-entry Add.
	a.UpdateLink(2, 6, now)
	now += 100 * time.Millisecond
	_, d3, _ := a.GenerateTCUpdate(now)
	if d3 == nil || d3.Index != 2 || len(d3.Add) != 1 || d3.Add[0] != (LinkInfo{Neighbor: 2, Weight: 6}) || len(d3.Del) != 0 {
		t.Fatalf("reweight delta = %+v", d3)
	}
	r.HandleTCDelta(d3, 1, now)
	if got, _ := advWeight(linksOf(r, 1), 2); got != 6 {
		t.Fatalf("receiver link weight = %v after delta, want 6", got)
	}
	if !rowOf(r, 1).synced || rowOf(r, 1).chain != 2 {
		t.Fatalf("receiver chain state = %+v", rowOf(r, 1))
	}

	// The 4th emission (tcFullPeriod = 4) refreshes with a full.
	now += 100 * time.Millisecond
	f4, d4, _ := a.GenerateTCUpdate(now)
	if f4 != nil || d4 == nil || d4.Index != 3 {
		t.Fatalf("emission 3 = (%v, %+v), want the chain's third delta", f4, d4)
	}
	now += 100 * time.Millisecond
	f5, d5, _ := a.GenerateTCUpdate(now)
	if f5 == nil || d5 != nil {
		t.Fatalf("emission 4 = (%v, %v), want the periodic full refresh", f5, d5)
	}
}

// TestGenerateTCReanchorsDeltaChain: a full TC forced through GenerateTC on a
// DeltaTC node is the chain's new anchor — the next delta names its Seq at
// index 1, so a receiver that ingested the forced full applies that delta
// instead of desynchronising on a stale FullSeq.
func TestGenerateTCReanchorsDeltaChain(t *testing.T) {
	cfg := testConfig()
	cfg.DeltaTC = true
	a, r, now := deltaPair(t, cfg)
	if full, _, _ := a.GenerateTCUpdate(now); full == nil {
		t.Fatal("first emission was not a full")
	}
	now += 100 * time.Millisecond
	forced := a.GenerateTC(now)
	if forced == nil {
		t.Fatal("GenerateTC stayed silent with a non-empty ANS")
	}
	r.HandleTC(forced, 1, now)

	now += 100 * time.Millisecond
	full, d, _ := a.GenerateTCUpdate(now)
	if full != nil || d == nil {
		t.Fatalf("emission after the forced full = (%v, %v), want a delta", full, d)
	}
	if d.FullSeq != forced.Seq || d.Index != 1 {
		t.Fatalf("delta chained at (%d, %d), want (%d, 1): the forced full did not re-anchor", d.FullSeq, d.Index, forced.Seq)
	}
	r.HandleTCDelta(d, 1, now)
	if got := r.RebuildStats().DeltaResyncs; got != 0 {
		t.Fatalf("receiver desynchronised %d times on the delta after a forced full", got)
	}
	if row := rowOf(r, 1); !row.synced || row.chain != 1 {
		t.Fatalf("receiver chain state = %+v, want synced at index 1", row)
	}
}

// TestClassicEmissionIsUpdateEmission: with DeltaTC off and no fish-eye
// schedule, GenerateTC and GenerateTCUpdate are the same emitter. Twin nodes
// fed the same HELLOs — through a silence that empties the ANS, a relearn
// that bumps the ANSN and a reweight — emit byte-identical TCs at unlimited
// scope, and fall silent on exactly the same emissions.
func TestClassicEmissionIsUpdateEmission(t *testing.T) {
	viaTC, _ := NewNode(1, testConfig())
	viaUpdate, _ := NewNode(1, testConfig())
	var emitted, silent int
	ansns := map[uint16]bool{}
	now := time.Duration(0)
	for round := 0; round < 30; round++ {
		now += time.Second
		// Rounds 8-15 are silent: longer than NeighborHoldTime, so the link
		// expires and the ANS empties until the neighbor is heard again.
		if round < 8 || round >= 16 {
			toUs := 5.0
			if round >= 22 {
				toUs = 6
			}
			h := &Hello{Origin: 2, Seq: uint16(round), Links: []LinkInfo{{Neighbor: 1, Weight: toUs}, {Neighbor: 3, Weight: 7}}}
			viaTC.HandleHello(h, now)
			viaUpdate.HandleHello(h, now)
		}
		tc := viaTC.GenerateTC(now)
		full, delta, ttl := viaUpdate.GenerateTCUpdate(now)
		if delta != nil || ttl != 0 {
			t.Fatalf("round %d: classic GenerateTCUpdate = (delta %v, ttl %d), want a full or nothing at unlimited scope", round, delta, ttl)
		}
		if (tc == nil) != (full == nil) {
			t.Fatalf("round %d: GenerateTC silent=%v, GenerateTCUpdate silent=%v", round, tc == nil, full == nil)
		}
		if tc == nil {
			silent++
			continue
		}
		if a, b := MarshalTC(tc), MarshalTC(full); !bytes.Equal(a, b) {
			t.Fatalf("round %d: GenerateTC encodes to %x, GenerateTCUpdate to %x", round, a, b)
		}
		emitted++
		ansns[tc.ANSN] = true
	}
	if emitted < 20 || silent == 0 || len(ansns) < 2 {
		t.Fatalf("run covered %d emissions, %d silent rounds, %d distinct ANSNs: want >= 20, > 0, >= 2", emitted, silent, len(ansns))
	}
}

// rowOf returns the state n's topology row about origin holds (nil when
// there is no row).
func rowOf(n *Node, origin int64) *topoState {
	if b, r := n.store.row(n.member, origin); r != nil {
		return b.state(*r)
	}
	return nil
}

// linksOf returns the advertised set n holds about origin (nil when none).
func linksOf(n *Node, origin int64) []LinkInfo {
	if row := rowOf(n, origin); row != nil {
		return row.adv
	}
	return nil
}

func TestHandleTCDeltaResyncOnGap(t *testing.T) {
	cfg := testConfig()
	cfg.DeltaTC = true
	a, r, now := deltaPair(t, cfg)

	full, _, _ := a.GenerateTCUpdate(now)
	r.HandleTC(full, 1, now)

	// Lose the first delta; the second cannot apply.
	now += 100 * time.Millisecond
	a.UpdateLink(2, 6, now)
	_, lost, _ := a.GenerateTCUpdate(now)
	if lost == nil || len(lost.Add) != 1 {
		t.Fatalf("lost delta = %+v", lost)
	}
	now += 100 * time.Millisecond
	a.UpdateLink(2, 7, now)
	_, d2, _ := a.GenerateTCUpdate(now)
	if d2 == nil || d2.Index != 2 {
		t.Fatalf("second delta = %+v", d2)
	}
	r.HandleTCDelta(d2, 1, now)
	cur := rowOf(r, 1)
	if cur.synced {
		t.Fatal("receiver still synced across a chain gap")
	}
	if w, _ := advWeight(linksOf(r, 1), 2); w != 5 {
		t.Fatalf("gapped receiver links = %v, want the pre-gap state kept", linksOf(r, 1))
	}

	// Further deltas stay unappliable until a full rebases the chain.
	now += 100 * time.Millisecond
	_, d3, _ := a.GenerateTCUpdate(now)
	r.HandleTCDelta(d3, 1, now)
	if rowOf(r, 1).synced {
		t.Fatal("delta applied while desynchronised")
	}
	now += 100 * time.Millisecond
	f, _, _ := a.GenerateTCUpdate(now) // emission 4: periodic full
	if f == nil {
		t.Fatal("expected the periodic full refresh")
	}
	r.HandleTC(f, 1, now)
	cur = rowOf(r, 1)
	if w, _ := advWeight(linksOf(r, 1), 2); !cur.synced || w != 7 {
		t.Fatalf("full did not resync: %+v", cur)
	}
}

// TestTCUpdateSeqsDistinct: full and delta emissions, and plain GenerateTC,
// draw Seq from the origin's one counter, so no two emissions share the
// (origin, seq) key the hosts' duplicate suppression drops repeats by.
func TestTCUpdateSeqsDistinct(t *testing.T) {
	cfg := testConfig()
	cfg.DeltaTC = true
	a, _, now := deltaPair(t, cfg)
	var first uint16
	fulls, deltas := 0, 0
	for i := 0; i < 3*tcFullPeriod; i++ {
		now += 100 * time.Millisecond
		var seq uint16
		if i%7 == 6 {
			seq = a.GenerateTC(now).Seq
			fulls++
		} else if full, d, _ := a.GenerateTCUpdate(now); full != nil {
			seq = full.Seq
			fulls++
		} else {
			seq = d.Seq
			deltas++
		}
		if i == 0 {
			first = seq
		}
		if want := first + uint16(i); seq != want {
			t.Fatalf("emission %d: seq %d, want %d", i, seq, want)
		}
	}
	if fulls == 0 || deltas == 0 {
		t.Fatalf("%d fulls, %d deltas: want both kinds", fulls, deltas)
	}
}

func TestGenerateTCUpdateFisheyeSchedule(t *testing.T) {
	cfg := testConfig()
	cfg.DeltaTC = true
	cfg.Fisheye = true
	a, _, now := deltaPair(t, cfg)

	// Emission 0 is scoped (TTL 2) but still a full: nothing was flooded
	// yet. Emission 1 is the unlimited slot and under DeltaTC must carry
	// the full; scoped slots after that carry deltas.
	wantTTL := []int{2, 0, 2, 0}
	wantFull := []bool{true, true, false, true}
	for i := range wantTTL {
		now += 100 * time.Millisecond
		full, d, ttl := a.GenerateTCUpdate(now)
		if ttl != wantTTL[i] {
			t.Errorf("emission %d: ttl = %d, want %d", i, ttl, wantTTL[i])
		}
		if (full != nil) != wantFull[i] || (d == nil) != wantFull[i] {
			t.Errorf("emission %d: full=%v delta=%v, want full=%v", i, full != nil, d != nil, wantFull[i])
		}
	}
}

func TestGenerateTCUpdateSilentWhenEmpty(t *testing.T) {
	cfg := testConfig()
	cfg.DeltaTC = true
	n, _ := NewNode(1, cfg)
	if f, d, _ := n.GenerateTCUpdate(0); f != nil || d != nil {
		t.Fatal("empty node emitted topology control")
	}
}

func TestFloodRelayAnnouncedInHello(t *testing.T) {
	cfg := DefaultConfig(metric.Bandwidth())
	cfg.Selector = testConfig().Selector
	cfg.MinCoverRelays = true
	a, _, now := deltaPair(t, cfg)
	h := a.GenerateHello(now)
	rel := a.relaySet
	if len(rel) == 0 {
		t.Fatal("no relay set with a 2-hop neighborhood")
	}
	if !slices.Equal(h.MPRs, rel) {
		t.Errorf("HELLO announces %v, relay set is %v", h.MPRs, rel)
	}
}

func TestDiffAdv(t *testing.T) {
	old := []LinkInfo{{Neighbor: 1, Weight: 1}, {Neighbor: 3, Weight: 3}, {Neighbor: 5, Weight: 5}}
	cur := []LinkInfo{{Neighbor: 1, Weight: 1}, {Neighbor: 4, Weight: 4}, {Neighbor: 5, Weight: 9}}
	add, del := diffAdv(old, cur)
	if len(add) != 2 || add[0] != (LinkInfo{Neighbor: 4, Weight: 4}) || add[1] != (LinkInfo{Neighbor: 5, Weight: 9}) {
		t.Errorf("add = %+v", add)
	}
	if len(del) != 1 || del[0] != 3 {
		t.Errorf("del = %+v", del)
	}
	if add, del := diffAdv(cur, cur); add != nil || del != nil {
		t.Errorf("self-diff = (%v, %v)", add, del)
	}
}
