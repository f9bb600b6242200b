package scenario

import (
	"testing"
	"time"

	"qolsr/internal/sim"
	"qolsr/internal/traffic"
)

// TestSampleAllocs pins what a sample costs beyond the protocol: in
// traffic-engine mode, where no probe is sent and no time advances, a warm
// sampler allocates the effective topology it searches, and the sample and
// its stretch count, which the probe callbacks update, on the heap; nothing
// else — no fresh search per flow source, no copy of any advertised set.
func TestSampleAllocs(t *testing.T) {
	sc := ladderScenario().WithDefaults()
	pts, err := samplePoints(sc, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := protocolConfig(sc.Protocol)
	if err != nil {
		t.Fatal(err)
	}
	medium, _, err := buildMedium(sc.Medium, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	channel := cfg.Metric.Name()
	g, err := sim.UnitDiskTopology(sc.Topology.field(), sc.Topology.radius(), pts, channel, 1)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := sim.NewNetwork(g, cfg, sim.NetworkOptions{Seed: 1, Medium: medium})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	nw.Run(20 * time.Second)
	// Every ordered pair, so each source heads several flows.
	flows := sim.DrawPairs(nw.Phys.N(), nw.Phys.N()*(nw.Phys.N()-1), 1)
	eng := traffic.NewEngine(nw, 1)
	smp := newSampler(flows)
	measure := func() Sample {
		s, err := smp.measure(nw, cfg.Metric, channel, flows, nw.Engine.Now(), 0, eng)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if s := measure(); s.Connected == 0 || s.OverheadFlows == 0 || s.SetSize == 0 {
		t.Fatalf("sample measured nothing: %+v", s)
	}
	topo := testing.AllocsPerRun(20, func() { effectiveTopology(nw, channel) })
	if got := testing.AllocsPerRun(20, func() { measure() }); got > topo+2 {
		t.Errorf("a warm sample allocates %v times, its effective topology %v", got, topo)
	}
}
