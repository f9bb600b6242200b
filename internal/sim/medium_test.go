package sim

import (
	"math"
	"testing"
	"time"

	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/olsr"
	"qolsr/internal/rng"
)

// statsOf runs a fresh network over g for simTime and returns its traffic
// and data accounting plus a delivery sweep to node 0.
func statsOf(t *testing.T, opts NetworkOptions, simTime time.Duration) (TrafficStats, DataStats, float64) {
	t.Helper()
	g := smallWorld(t, 21, 8)
	cfg := olsr.DefaultConfig(metric.Bandwidth())
	nw, err := NewNetwork(g, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	nw.Run(simTime)
	delivery, _ := nw.DeliverySweep(0)
	return nw.Stats, nw.Data, delivery
}

// TestIdealMediumIsTheDefault locks the refactor's bit-identity contract: a
// network built with a nil medium and one built with an explicit
// IdealMedium must produce identical traffic, data accounting and delivery.
func TestIdealMediumIsTheDefault(t *testing.T) {
	s1, d1, dl1 := statsOf(t, NetworkOptions{Seed: 5}, 30*time.Second)
	s2, d2, dl2 := statsOf(t, NetworkOptions{Seed: 5, Medium: NewIdealMedium(0)}, 30*time.Second)
	if s1 != s2 {
		t.Errorf("traffic stats differ: nil medium %+v, explicit ideal %+v", s1, s2)
	}
	if d1 != d2 {
		t.Errorf("data stats differ: nil medium %+v, explicit ideal %+v", d1, d2)
	}
	if dl1 != dl2 {
		t.Errorf("delivery differs: %g vs %g", dl1, dl2)
	}
	if d1.Lost != 0 {
		t.Errorf("ideal medium lost %d data packets", d1.Lost)
	}
}

// TestLossyMediumDeterminism locks the keyed-draw design: the same seed
// must reproduce the same simulation bit for bit, and a different medium
// seed must perturb it.
func TestLossyMediumDeterminism(t *testing.T) {
	run := func(seed int64) (TrafficStats, DataStats, float64) {
		return statsOf(t, NetworkOptions{
			Seed:   5,
			Medium: NewLossyMedium(LossyConfig{Loss: 0.2, Seed: seed}),
		}, 30*time.Second)
	}
	s1, d1, dl1 := run(9)
	s2, d2, dl2 := run(9)
	if s1 != s2 || d1 != d2 || dl1 != dl2 {
		t.Errorf("same lossy seed diverged: %+v/%+v/%g vs %+v/%+v/%g", s1, d1, dl1, s2, d2, dl2)
	}
	s3, _, _ := run(10)
	if s1 == s3 {
		t.Error("different lossy seeds produced identical traffic stats")
	}
}

// TestLossyMediumDegradesDelivery checks the loss knob has the obvious
// monotone effect on the data plane, and that heavy loss also suppresses
// control traffic (fewer HELLOs survive, fewer links form).
func TestLossyMediumDegradesDelivery(t *testing.T) {
	_, dNone, dlNone := statsOf(t, NetworkOptions{Seed: 5}, 30*time.Second)
	_, dLossy, dlLossy := statsOf(t, NetworkOptions{
		Seed:   5,
		Medium: NewLossyMedium(LossyConfig{Loss: 0.5, Seed: 3}),
	}, 30*time.Second)
	if dlLossy >= dlNone {
		t.Errorf("delivery under 50%% loss (%g) not below ideal (%g)", dlLossy, dlNone)
	}
	if dLossy.Lost == 0 && dLossy.NoRoute <= dNone.NoRoute {
		t.Errorf("lossy run shows no medium effect: %+v vs ideal %+v", dLossy, dNone)
	}
}

// TestLossyMediumPerLinkOverride: a single fully-degraded link behaves like
// a failed link for frames while other links keep working.
func TestLossyMediumPerLinkOverride(t *testing.T) {
	lm := NewLossyMedium(LossyConfig{Seed: 1})
	g := smallWorld(t, 21, 8)
	cfg := olsr.DefaultConfig(metric.Bandwidth())
	nw, err := NewNetwork(g, cfg, NetworkOptions{Seed: 5, Medium: lm})
	if err != nil {
		t.Fatal(err)
	}
	a, b := int32(0), nw.Phys.Arcs(0)[0].To
	lm.SetLinkLoss(b, a, 1.5) // reversed order + clamped to maxPER
	if per := lm.LinkPER(a, b); per != maxPER {
		t.Errorf("LinkPER(a,b) = %g, want clamp %g", per, maxPER)
	}
	if per := lm.LinkPER(b, a); per != maxPER {
		t.Errorf("LinkPER(b,a) = %g, want clamp %g", per, maxPER)
	}
	lm.SetLinkLoss(a, b, -1) // clear
	if per := lm.LinkPER(a, b); per != 0 {
		t.Errorf("cleared LinkPER = %g, want base 0", per)
	}
	lm.SetBaseLoss(0.25)
	if per := lm.LinkPER(a, b); per != 0.25 {
		t.Errorf("LinkPER after SetBaseLoss = %g, want 0.25", per)
	}
}

// TestLossyMediumQueueing: two back-to-back frames from one sender must
// serialize — the second waits for the first's transmission to finish.
func TestLossyMediumQueueing(t *testing.T) {
	lm := NewLossyMedium(LossyConfig{Seed: 1})
	g := smallWorld(t, 21, 8)
	cfg := olsr.DefaultConfig(metric.Bandwidth())
	nw, err := NewNetwork(g, cfg, NetworkOptions{Seed: 5, Medium: lm})
	if err != nil {
		t.Fatal(err)
	}
	_ = nw
	dst := nw.Phys.Arcs(0)[0].To
	one := []int32{dst}
	p1 := lm.PlanFrame(0, one, 1000, 0)
	if len(p1) != 1 {
		t.Fatalf("first frame lost with zero loss: %v", p1)
	}
	first := p1[0].Delay
	p2 := lm.PlanFrame(0, one, 1000, 0)
	if len(p2) != 1 {
		t.Fatalf("second frame lost with zero loss: %v", p2)
	}
	// The second frame queues behind the first's serialization, which for
	// a 1000-byte frame is strictly positive (and, at a bandwidth weight
	// under 40, longer than the 200 µs jitter spread).
	if p2[0].Delay <= first || p2[0].Wait <= 0 {
		t.Errorf("no queueing: first delay %v, second %v (wait %v)", first, p2[0].Delay, p2[0].Wait)
	}
	if lm.HopDelayBound() <= time.Millisecond {
		t.Errorf("HopDelayBound %v not above propagation delay", lm.HopDelayBound())
	}
}

// TestLossyDrawsPinned pins the keyed draws to their documented key:
// PlanFrame hashes the (base, kind, src) head of each key once per frame,
// and the outcome must stay rng.Mix(base, kind, src, dst, seq) computed the
// long way — for a whole-neighbourhood broadcast (the cursor path), a
// unicast and a candidate list out of arc order (the scan fallback).
func TestLossyDrawsPinned(t *testing.T) {
	const seed, size = 77, 300
	cfg := LossyConfig{Loss: 0.3, Seed: seed}
	lm := NewLossyMedium(cfg)
	nw, err := NewNetwork(smallWorld(t, 21, 8), olsr.DefaultConfig(metric.Bandwidth()), NetworkOptions{Seed: 5, Medium: lm})
	if err != nil {
		t.Fatal(err)
	}
	bw, err := nw.Phys.Weights(bandwidthChannel)
	if err != nil {
		t.Fatal(err)
	}
	base := lossyDrawBase(seed)
	frames := map[int32]uint64{} // per-sender frame sequence
	var now time.Duration
	lost, kept := 0, 0
	plan := func(src int32, dsts []int32) {
		t.Helper()
		seq := frames[src]
		frames[src]++
		now += time.Hour // every earlier frame has left the air: no queue wait
		got := lm.PlanFrame(src, dsts, size, now)
		var want []Hop
		for _, dst := range dsts {
			e, ok := nw.Phys.EdgeBetween(src, dst)
			if !ok {
				t.Fatalf("no edge %d-%d", src, dst)
			}
			if rng.Unit(rng.Mix(base, drawLoss, uint64(uint32(src)), uint64(uint32(dst)), seq)) < cfg.Loss {
				lost++
				continue
			}
			kept++
			ser := time.Duration(float64(size) / (unitBytesPerSec * bw[e]) * float64(time.Second))
			jitter := rng.Mix(base, drawJitter, uint64(uint32(src)), uint64(uint32(dst)), seq) % uint64(lossyJitter)
			want = append(want, Hop{Dst: dst, Delay: ser + DefaultPropDelay + time.Duration(jitter)})
		}
		if len(got) != len(want) {
			t.Fatalf("src %d seq %d: plan %v, want %v", src, seq, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("src %d seq %d hop %d: %+v, want %+v", src, seq, i, got[i], want[i])
			}
		}
	}
	for _, src := range []int32{0, 3, 11} {
		var all []int32
		for _, arc := range nw.Phys.Arcs(src) {
			all = append(all, arc.To)
		}
		plan(src, all)
		plan(src, all[len(all)-1:])
		plan(src, []int32{all[len(all)-1], all[0]})
		plan(src, all)
	}
	if lost == 0 || kept == 0 {
		t.Fatalf("draws not exercised on both sides: %d lost, %d kept", lost, kept)
	}
}

// TestMediumByName covers the registry.
func TestMediumByName(t *testing.T) {
	for _, name := range MediumNames() {
		m, err := MediumByName(name, LossyConfig{})
		if err != nil {
			t.Fatalf("MediumByName(%q): %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("MediumByName(%q).Name() = %q", name, m.Name())
		}
	}
	if m, err := MediumByName("", LossyConfig{}); err != nil || m.Name() != "ideal" {
		t.Errorf("empty name: %v, %v", m, err)
	}
	if _, err := MediumByName("nope", LossyConfig{}); err == nil {
		t.Error("unknown medium accepted")
	}
}

// TestETXEstimatorConvergence runs measured-QoS link sensing over a lossy
// radio with a fixed loss rate and checks the windowed estimates converge
// to the configured rate: delivery ratio ~ (1-p) per direction, link
// weight ~ ETX = 1/(1-p)^2 under an additive metric.
func TestETXEstimatorConvergence(t *testing.T) {
	const loss = 0.25
	g := graph.New(2)
	e := mustAddEdge(g, 0, 1)
	if err := g.SetWeight("delay", e, 1); err != nil {
		t.Fatal(err)
	}
	cfg := olsr.DefaultConfig(metric.Delay())
	cfg.HelloInterval = time.Second
	cfg.NeighborHoldTime = 8 * time.Second
	cfg.LinkSensing = olsr.SenseDelivery
	nw, err := NewNetwork(g, cfg, NetworkOptions{
		Seed:   5,
		Medium: NewLossyMedium(LossyConfig{Loss: loss, Seed: 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	nw.Run(300 * time.Second)
	now := nw.Engine.Now()

	wantRatio := 1 - loss
	type dir struct {
		node     int
		neighbor int64
	}
	for _, d := range []dir{{0, int64(g.ID(1))}, {1, int64(g.ID(0))}} {
		ratio, ok := nw.Nodes[d.node].LinkQuality(d.neighbor, now)
		if !ok {
			t.Fatalf("node %d has no quality estimate for %d", d.node, d.neighbor)
		}
		if math.Abs(ratio-wantRatio) > 0.15 {
			t.Errorf("node %d measured ratio %g, want ~%g", d.node, ratio, wantRatio)
		}
		w, ok := nw.Nodes[d.node].LinkWeight(d.neighbor, now)
		if !ok {
			t.Fatalf("node %d has no measured link weight for %d", d.node, d.neighbor)
		}
		lo := 1 / ((wantRatio + 0.15) * (wantRatio + 0.15))
		hi := 1 / ((wantRatio - 0.15) * (wantRatio - 0.15))
		if w < lo || w > hi {
			t.Errorf("node %d measured ETX %g outside [%g, %g]", d.node, w, lo, hi)
		}
	}
}
