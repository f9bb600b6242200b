package olsr

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"qolsr/internal/metric"
)

func TestLQEstimatorPerfectStream(t *testing.T) {
	e := newLQEstimator(8)
	for seq := uint16(0); seq < 20; seq++ {
		e.observe(seq)
	}
	if r := e.ratio(); r != 1 {
		t.Errorf("lossless stream ratio = %g, want 1", r)
	}
}

func TestLQEstimatorGapsCountAsMisses(t *testing.T) {
	e := newLQEstimator(8)
	// Receive seq 0, then 2, 4, 6, ... — every other HELLO lost.
	for seq := uint16(0); seq < 32; seq += 2 {
		e.observe(seq)
	}
	if r := e.ratio(); math.Abs(r-0.5) > 1e-9 {
		t.Errorf("alternating stream ratio = %g, want 0.5", r)
	}
}

func TestLQEstimatorWindowSlides(t *testing.T) {
	e := newLQEstimator(4)
	// Lossy prefix, then a clean tail longer than the window: the ratio
	// must forget the prefix entirely.
	e.observe(0)
	e.observe(5)
	for seq := uint16(6); seq < 12; seq++ {
		e.observe(seq)
	}
	if r := e.ratio(); r != 1 {
		t.Errorf("ratio after clean tail = %g, want 1 (window must slide)", r)
	}
}

func TestLQEstimatorWrapAround(t *testing.T) {
	e := newLQEstimator(8)
	e.observe(0xfffe)
	e.observe(0xffff)
	e.observe(0) // wrap: gap of exactly 1
	e.observe(1)
	if r := e.ratio(); r != 1 {
		t.Errorf("ratio across seq wrap = %g, want 1", r)
	}
	e.observe(3) // one miss after the wrap: 5 hits, 1 miss in the window
	if r := e.ratio(); math.Abs(r-5.0/6) > 1e-9 {
		t.Errorf("ratio = %g, want 5/6", r)
	}
}

func TestLQEstimatorDuplicateIgnored(t *testing.T) {
	e := newLQEstimator(8)
	e.observe(1)
	e.observe(1)
	e.observe(1)
	if e.filled != 1 {
		t.Errorf("duplicates filled the window: filled = %d, want 1", e.filled)
	}
}

// TestLQEstimatorOutOfOrderIgnored: a reordered HELLO (sequence behind the
// last seen, possible when medium jitter approaches the emission interval)
// must not be misread as a ~65535-wide loss burst.
func TestLQEstimatorOutOfOrderIgnored(t *testing.T) {
	e := newLQEstimator(8)
	e.observe(5)
	e.observe(7) // one miss (seq 6)
	e.observe(6) // late arrival — ignored, not a giant gap
	if e.filled != 3 {
		t.Errorf("out-of-order arrival changed the window: filled = %d, want 3", e.filled)
	}
	if r := e.ratio(); math.Abs(r-2.0/3) > 1e-9 {
		t.Errorf("ratio = %g, want 2/3", r)
	}
	// Same across the wrap boundary.
	e2 := newLQEstimator(8)
	e2.observe(2)
	e2.observe(0xffff) // far behind in wrap arithmetic — ignored
	if e2.filled != 1 {
		t.Errorf("wrapped out-of-order arrival filled the window: filled = %d, want 1", e2.filled)
	}
}

func TestMeasuredWeightMapping(t *testing.T) {
	if _, ok := measuredWeight(metric.Delay(), 0, 0.5); ok {
		t.Error("unmeasured direction produced a weight")
	}
	w, ok := measuredWeight(metric.Delay(), 0.8, 0.5)
	if !ok || math.Abs(w-1/0.4) > 1e-9 {
		t.Errorf("additive weight = %g, %v; want ETX 2.5", w, ok)
	}
	w, ok = measuredWeight(metric.Bandwidth(), 0.8, 0.5)
	if !ok || math.Abs(w-0.4) > 1e-9 {
		t.Errorf("concave weight = %g, %v; want product 0.4", w, ok)
	}
	// The ETX of a terrible-but-alive link stays finite.
	w, ok = measuredWeight(metric.Delay(), 1e-6, 1e-6)
	if !ok || math.IsInf(w, 0) || w > 1/minLQProduct+1e-9 {
		t.Errorf("floored ETX = %g, %v", w, ok)
	}
}

func TestHelloLQWireRoundTrip(t *testing.T) {
	h := &Hello{
		Origin: 7,
		Seq:    3,
		Links:  []LinkInfo{{Neighbor: 1, Weight: 2.5}},
		MPRs:   []int64{1},
		LQs:    []LinkInfo{{Neighbor: 1, Weight: 0.875}, {Neighbor: 4, Weight: 0.5}},
	}
	got, err := UnmarshalHello(MarshalHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Errorf("round trip = %+v, want %+v", got, h)
	}
	// A HELLO without LQs stays byte-identical to the pre-measurement wire
	// format: no trailing block at all.
	bare := &Hello{Origin: 7, Seq: 3, Links: h.Links, MPRs: h.MPRs}
	buf := MarshalHello(bare)
	wantLen := headerLen + len(bare.Links)*linkInfoLen + 2 + len(bare.MPRs)*8
	if len(buf) != wantLen {
		t.Errorf("bare hello length = %d, want %d (no LQ block)", len(buf), wantLen)
	}
	back, err := UnmarshalHello(buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.LQs != nil {
		t.Errorf("bare hello decoded with LQs %v", back.LQs)
	}
	// Truncated LQ block is rejected, and so are trailing bytes after a
	// complete one.
	full := MarshalHello(h)
	if _, err := UnmarshalHello(full[:len(full)-4]); err == nil {
		t.Error("truncated LQ block accepted")
	}
	if _, err := UnmarshalHello(append(append([]byte(nil), full...), 0xee)); err == nil {
		t.Error("trailing garbage after LQ block accepted")
	}
}

// TestMeasuredQoSFormsSymmetricLinks drives two nodes by hand: a link forms
// only once both directions have been heard, with the ETX-mapped weight.
func TestMeasuredQoSFormsSymmetricLinks(t *testing.T) {
	cfg := DefaultConfig(metric.Delay())
	cfg.LinkSensing = SenseDelivery
	a, err := NewNode(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Second
	// b hears a's first HELLO: asymmetric, no link yet.
	b.HandleHello(a.GenerateHello(now), now)
	if _, ok := b.LinkWeight(1, now); ok {
		t.Error("asymmetric hearing formed a link")
	}
	// a hears b's HELLO, which reports hearing a: a forms the link.
	a.HandleHello(b.GenerateHello(now), now)
	if w, ok := a.LinkWeight(2, now); !ok || w != 1 {
		t.Errorf("a's measured weight = %g, %v; want ETX 1 on a lossless pair", w, ok)
	}
	// The next exchange closes the loop for b too.
	b.HandleHello(a.GenerateHello(now+time.Second), now+time.Second)
	if w, ok := b.LinkWeight(1, now+time.Second); !ok || w != 1 {
		t.Errorf("b's measured weight = %g, %v; want ETX 1", w, ok)
	}
	if q, ok := a.LinkQuality(2, now+time.Second); !ok || q != 1 {
		t.Errorf("a's LinkQuality of b = %g, %v; want 1", q, ok)
	}
}

// isRung reports whether w is exactly one of the RTT ladder's rungs.
func isRung(w float64) bool {
	k := math.Round(rungsPerOctave * math.Log2(w/rttFloor))
	return k >= 0 && w == rttFloor*math.Exp2(k/rungsPerOctave)
}

// TestRTTPricingSymmetric drives 1,000 seeded pairs of SenseRTT nodes. Each
// end measures its own round-trip stream — its own floor, one end at up to
// twice the other's, and its own jitter — and the two emit and handle HELLOs
// in random interleavings, a newer HELLO replacing one still in flight.
// Whenever each end has handled the other's latest HELLO, both must price
// the link at the same rung, bit for bit. Then each stream wobbles across
// its end's rung within one bucket's width, and no version may move.
func TestRTTPricingSymmetric(t *testing.T) {
	cfg := DefaultConfig(metric.Delay())
	cfg.LinkSensing = SenseRTT
	cfg.NeighborHoldTime = time.Hour // nothing expires under the test
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, _ := NewNode(1, cfg)
		b, _ := NewNode(2, cfg)
		ends := [2]*Node{a, b}
		base := 0.02 + 2*rng.Float64()
		floor := [2]float64{base, base * (1 + rng.Float64())}
		if rng.Intn(2) == 0 {
			floor[0], floor[1] = floor[1], floor[0]
		}
		jitter := [2]float64{rng.Float64(), 2 * rng.Float64()}
		rtt := func(i int) time.Duration { return ms(floor[i] * (1 + jitter[i]*rng.ExpFloat64())) }
		var now time.Duration
		var inflight [2]*Hello // each end's latest HELLO the other has not handled
		step := func(i int, rtt func(int) time.Duration) {
			now += time.Millisecond
			switch rng.Intn(3) {
			case 0:
				ends[i].ObserveRTT(int64(2-i), rtt(i), now)
			case 1:
				inflight[i] = ends[i].GenerateHello(now)
			default:
				if inflight[i] != nil {
					ends[1-i].HandleHello(inflight[i], now)
					inflight[i] = nil
				}
			}
		}
		check := func() {
			wa, okA := a.LinkWeight(2, now)
			wb, okB := b.LinkWeight(1, now)
			if okA && okB && (wa != wb || !isRung(wa)) {
				t.Fatalf("seed %d: ends price the link at %v and %v; want one rung", seed, wa, wb)
			}
		}
		for range 200 {
			step(rng.Intn(2), rtt)
			if inflight[0] == nil && inflight[1] == nil {
				check()
			}
		}
		// A closing exchange with both ends measured links them; what was
		// still in flight is lost.
		inflight = [2]*Hello{}
		for i := range ends {
			ends[i].ObserveRTT(int64(2-i), rtt(i), now)
		}
		b.HandleHello(a.GenerateHello(now), now)
		a.HandleHello(b.GenerateHello(now), now)
		b.HandleHello(a.GenerateHello(now), now)
		if _, ok := a.LinkWeight(2, now); !ok {
			t.Fatalf("seed %d: no link after a full exchange", seed)
		}
		check()

		// Each stream now wobbles within one bucket's width, straddling its
		// end's advertised rung.
		var rung [2]float64
		for i, n := range ends {
			rung[i] = n.lq.get(int64(2 - i)).adv
		}
		inBucket := func(i int) time.Duration {
			return ms(rung[i] * math.Exp2((rng.Float64()-0.5)/rungsPerOctave))
		}
		for _, n := range ends {
			if _, err := n.Routes(now); err != nil {
				t.Fatal(err)
			}
		}
		for range 200 {
			step(rng.Intn(2), inBucket)
			if a.RoutesDirty(now) || b.RoutesDirty(now) {
				t.Fatalf("seed %d: a stream inside one bucket moved a version", seed)
			}
		}
	}
}

// TestRTTPeerRungIgnoresReorderedHello: under SenseRTT the peer's rung comes
// only from a HELLO newer than the one it was last taken from, so a delayed
// older HELLO carrying a lower rung cannot set the link's price back.
func TestRTTPeerRungIgnoresReorderedHello(t *testing.T) {
	cfg := DefaultConfig(metric.Delay())
	cfg.LinkSensing = SenseRTT
	n, err := NewNode(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Second
	n.ObserveRTT(2, 40*time.Microsecond, now)
	n.GenerateHello(now) // this end's rung
	adv := n.lq.get(2).adv
	r1, r2 := 2*rttFloor, 4*rttFloor
	if !isRung(adv) || !isRung(r1) || !isRung(r2) || adv >= r1 {
		t.Fatalf("fixture: rungs adv %v, r1 %v, r2 %v", adv, r1, r2)
	}
	hello := func(seq uint16, rung float64) *Hello {
		return &Hello{Origin: 2, Seq: seq, LQs: []LinkInfo{{Neighbor: 1, Weight: rung}}}
	}
	want := func(step string, rung float64) {
		t.Helper()
		if w, ok := n.LinkWeight(2, now); !ok || w != max(adv, rung) {
			t.Errorf("%s: link weight %v (%v), want %v", step, w, ok, max(adv, rung))
		}
	}
	n.HandleHello(hello(7, r2), now)
	want("seq 7 at r2", r2)
	n.HandleHello(hello(6, r1), now)
	want("late seq 6 at r1", r2)
	n.HandleHello(hello(0xffff, r1), now) // behind 7 in wrap arithmetic
	want("late seq 0xffff at r1", r2)
	n.HandleHello(hello(8, r1), now)
	want("seq 8 at r1", r1)
}
