package traffic

import (
	"reflect"
	"testing"
	"time"

	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/olsr"
	"qolsr/internal/sim"
)

// runLine drives one CBR flow 0->3 over the 4-node gate topology with the
// direct link down, so packets take the 3-hop chain.
func runLine(t *testing.T, req Requirements) *Report {
	t.Helper()
	nw := gateNetwork(t)
	if err := nw.FailLink(0, 3); err != nil {
		t.Fatal(err)
	}
	nw.Run(nw.Engine.Now() + 30*time.Second)

	eng := NewEngine(nw, 42)
	err := eng.Add(Flow{
		ID: 0, Class: ClassCBR, Src: 0, Dst: 3,
		RateBps: 8192, PacketBytes: 512,
		Start: nw.Engine.Now(), Req: req,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := nw.Engine.Now() + 10*time.Second
	if err := eng.Start(stop); err != nil {
		t.Fatal(err)
	}
	nw.Run(stop + time.Second)
	return eng.Report()
}

func TestEngineDeliversCBROnIdealMedium(t *testing.T) {
	rep := runLine(t, Requirements{MaxDelay: 10 * time.Millisecond})
	if len(rep.Flows) != 1 {
		t.Fatalf("flows = %d", len(rep.Flows))
	}
	fr := rep.Flows[0]
	if fr.Rejected {
		t.Fatalf("flow rejected: %+v", fr.Decision)
	}
	// 8192 B/s in 512-byte packets is 16 packets/s for 10s.
	if fr.Sent < 155 || fr.Sent > 165 {
		t.Errorf("sent = %d, want ~160", fr.Sent)
	}
	if fr.Delivered != fr.Sent || fr.Delivery != 1 {
		t.Errorf("ideal medium lost packets: %d/%d", fr.Delivered, fr.Sent)
	}
	// Every packet crosses the 3-hop chain at 1ms/hop, with zero jitter.
	if fr.DelayMean != 3*time.Millisecond || fr.DelayP50 != 3*time.Millisecond ||
		fr.DelayP95 != 3*time.Millisecond || fr.DelayP99 != 3*time.Millisecond {
		t.Errorf("delay stats = %v/%v/%v/%v, want 3ms across", fr.DelayMean, fr.DelayP50, fr.DelayP95, fr.DelayP99)
	}
	if fr.Jitter != 0 {
		t.Errorf("jitter = %v on the ideal medium", fr.Jitter)
	}
	if fr.Verdict != VerdictSatisfied {
		t.Errorf("verdict = %s, want satisfied", fr.Verdict)
	}
	if rep.Total.Admitted != 1 || rep.Total.ViolationRatio() != 0 {
		t.Errorf("totals wrong: %+v", rep.Total)
	}
	if fr.Throughput < 7000 || fr.Throughput > 9000 {
		t.Errorf("throughput = %.0f B/s, want ~8192", fr.Throughput)
	}
}

func TestEngineRejectedFlowStaysSilent(t *testing.T) {
	rep := runLine(t, Requirements{MaxDelay: 2 * time.Millisecond})
	fr := rep.Flows[0]
	if !fr.Rejected || fr.Verdict != VerdictCorrectReject {
		t.Fatalf("3-hop flow not correctly rejected: %+v", fr)
	}
	if fr.Sent != 0 {
		t.Errorf("rejected flow sent %d packets", fr.Sent)
	}
	if rep.Total.CorrectReject != 1 || rep.Total.Admitted != 0 {
		t.Errorf("totals wrong: %+v", rep.Total)
	}
}

func TestEngineDeterministic(t *testing.T) {
	a := runLine(t, Requirements{MaxDelay: 10 * time.Millisecond})
	b := runLine(t, Requirements{MaxDelay: 10 * time.Millisecond})
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical runs produced different reports:\n%+v\nvs\n%+v", a, b)
	}
}

func TestEngineMixedClassesOnLossyMedium(t *testing.T) {
	// A denser network over the lossy queued radio: all three classes
	// offer load; the run must account every packet exactly once.
	g := graph.New(6)
	for _, l := range [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 2}, {1, 3}, {2, 4}, {3, 5}} {
		e := mustAddEdge(g, l[0], l[1])
		if err := g.SetWeight("bandwidth", e, 4); err != nil {
			t.Fatal(err)
		}
	}
	medium := sim.NewLossyMedium(sim.LossyConfig{Loss: 0.05, Seed: 9})
	nw, err := sim.NewNetwork(g, olsr.DefaultConfig(metric.Bandwidth()), sim.NetworkOptions{Seed: 5, Medium: medium})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	nw.Run(20 * time.Second)

	eng := NewEngine(nw, 7)
	flows, err := FlowsFromSpecs([]Spec{
		{Class: "cbr", Count: 2, RateBps: 4096},
		{Class: "poisson", Count: 2, RateBps: 4096},
		{Class: "video", Count: 2, RateBps: 4096},
	}, [][2]int32{{0, 5}, {5, 0}, {1, 4}, {4, 1}, {2, 5}, {3, 0}}, nw.Engine.Now())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if err := eng.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	stop := nw.Engine.Now() + 15*time.Second
	if err := eng.Start(stop); err != nil {
		t.Fatal(err)
	}
	// Drain well past the stop so in-flight packets complete.
	nw.Run(stop + 2*time.Second)

	c := eng.Counters()
	if c.Sent == 0 || c.Completed != c.Sent {
		t.Fatalf("counters unbalanced: %+v", c)
	}
	if c.Delivered == 0 || c.Delivered > c.Sent {
		t.Fatalf("implausible delivery: %+v", c)
	}
	rep := eng.Report()
	if len(rep.Classes) != 3 {
		t.Fatalf("classes = %d, want 3", len(rep.Classes))
	}
	var sent, delivered uint64
	for _, cls := range rep.Classes {
		sent += cls.Sent
		delivered += cls.Delivered
	}
	if sent != c.Sent || delivered != c.Delivered {
		t.Errorf("class totals (%d/%d) disagree with counters (%d/%d)", delivered, sent, c.Delivered, c.Sent)
	}
	if rep.Total.Sent != sent || rep.Total.Delivered != delivered {
		t.Errorf("grand total disagrees: %+v", rep.Total)
	}
	// On a queued lossy radio the delay distribution must be spread out.
	if rep.Total.DelayP99 <= rep.Total.DelayMean {
		t.Errorf("p99 %v not above the mean %v", rep.Total.DelayP99, rep.Total.DelayMean)
	}
	if rep.Total.Jitter <= 0 {
		t.Errorf("zero jitter on a jittery medium")
	}
}

func TestEngineAddValidation(t *testing.T) {
	nw := gateNetwork(t)
	eng := NewEngine(nw, 1)
	bad := []Flow{
		{ID: 0, Class: "nope", Src: 0, Dst: 1, RateBps: 100, PacketBytes: 512},
		{ID: 1, Class: "cbr", Src: 0, Dst: 1, RateBps: 100, PacketBytes: 512}, // out-of-order ID
		{ID: 0, Class: "cbr", Src: 2, Dst: 2, RateBps: 100, PacketBytes: 512},
		{ID: 0, Class: "cbr", Src: 0, Dst: 9, RateBps: 100, PacketBytes: 512},
		{ID: 0, Class: "cbr", Src: 0, Dst: 1, RateBps: 0, PacketBytes: 512},
	}
	for i, f := range bad {
		if err := eng.Add(f); err == nil {
			t.Errorf("bad flow %d accepted", i)
		}
	}
	if err := eng.Add(Flow{ID: 0, Class: "cbr", Src: 0, Dst: 1, RateBps: 100, PacketBytes: 512}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(time.Minute); err == nil {
		t.Error("double Start accepted")
	}
	if err := eng.Add(Flow{ID: 1, Class: "cbr", Src: 1, Dst: 2, RateBps: 100, PacketBytes: 512}); err == nil {
		t.Error("Add after Start accepted")
	}
}
