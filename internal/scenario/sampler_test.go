package scenario

import (
	"testing"
	"time"

	"qolsr/internal/sim"
	"qolsr/internal/traffic"
)

// TestSampleAllocs pins what a sample costs beyond the protocol. In
// traffic-engine mode, where no probe is sent and no time advances, a warm
// sampler allocates the effective topology it searches and nothing else: no
// fresh search per flow source, no copy of any advertised set, and no heap
// sample, since probes complete into the sampler itself. In probe mode a
// warm sample allocates no more with a probe on every ordered pair than
// with one probe: a probe is a pooled packet completing through the
// sampler's sink, not a closure of its own.
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
	// allocs returns a warm sampler's allocations per sample over flows.
	allocs := func(flows [][2]int32, drain time.Duration, eng *traffic.Engine) float64 {
		smp := newSampler(flows)
		measure := func() {
			s, err := smp.measure(nw, cfg.Metric, channel, flows, nw.Engine.Now(), drain, eng)
			if err != nil {
				t.Fatal(err)
			}
			if s.Connected == 0 || s.OverheadFlows == 0 || s.SetSize == 0 || eng == nil && s.Delivered == 0 {
				t.Fatalf("sample measured nothing: %+v", s)
			}
		}
		measure()
		return testing.AllocsPerRun(20, measure)
	}
	topo := testing.AllocsPerRun(20, func() { effectiveTopology(nw, channel) })
	if got := allocs(flows, 0, traffic.NewEngine(nw, 1)); got > topo {
		t.Errorf("a warm engine-mode sample allocates %v times, its effective topology %v", got, topo)
	}
	drain := probeDrain(medium)
	one, all := allocs(flows[:1], drain, nil), allocs(flows, drain, nil)
	if all > one {
		t.Errorf("a warm probe-mode sample allocates %v times with %d probes, %v with one", all, len(flows), one)
	}
	t.Logf("effective topology %v; probe-mode sample: %v with one probe, %v with %d", topo, one, all, len(flows))
}
