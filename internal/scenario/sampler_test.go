package scenario

import (
	"testing"
	"time"

	"qolsr/internal/core"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/olsr"
	"qolsr/internal/sim"
	"qolsr/internal/traffic"
)

// warmLadder deploys the ladder scenario's field under cfg on its medium and
// runs it for 20 s, long enough for every node to have selected its sets.
func warmLadder(t *testing.T, cfg olsr.Config) (*sim.Network, sim.Medium) {
	t.Helper()
	sc := ladderScenario().WithDefaults()
	pts, err := samplePoints(sc, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	medium, _, err := buildMedium(sc.Medium, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sim.UnitDiskTopology(sc.Topology.field(), sc.Topology.radius(), pts, cfg.Metric.Name(), 1)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := sim.NewNetwork(g, cfg, sim.NetworkOptions{Seed: 1, Medium: medium})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	nw.Run(20 * time.Second)
	return nw, medium
}

// TestSampleAllocs pins what a sample costs beyond the protocol. In
// traffic-engine mode, where no probe is sent and no time advances, a warm
// sampler allocates the effective topology it searches and nothing else: no
// fresh search per flow source, no copy of any advertised set, and no heap
// sample, since probes complete into the sampler itself. In probe mode a
// warm sample allocates no more with a probe on every ordered pair than
// with one probe: a probe is a pooled packet completing through the
// sampler's sink, not a closure of its own.
func TestSampleAllocs(t *testing.T) {
	cfg, err := protocolConfig(ladderScenario().WithDefaults().Protocol)
	if err != nil {
		t.Fatal(err)
	}
	channel := cfg.Metric.Name()
	nw, medium := warmLadder(t, cfg)
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

// countingSelector counts the selections it hands to the wrapped selector.
type countingSelector struct {
	core.Selector
	calls *int
}

func (c countingSelector) Select(view *graph.LocalView, m metric.Metric, w []float64) ([]int32, error) {
	*c.calls++
	return c.Selector.Select(view, m, w)
}

// TestSampleRunsNoSelector: a sample reads each node's advertised set as
// held and selects nothing, so watching a run cannot change what it sends.
// With every node's neighbourhood made stale by a new weight on one own
// link, an engine-mode sample runs the ANS selector no time, and the next
// TC emission runs it once per node.
func TestSampleRunsNoSelector(t *testing.T) {
	cfg, err := protocolConfig(ladderScenario().WithDefaults().Protocol)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	cfg.Selector = countingSelector{cfg.Selector, &calls}
	nw, _ := warmLadder(t, cfg)
	now := nw.Engine.Now()
	for i, nd := range nw.Nodes {
		nb := int64(nw.Phys.ID(nw.Phys.Arcs(int32(i))[0].To))
		w, ok := nd.LinkWeight(nb, now)
		if !ok {
			t.Fatalf("node %d holds no link to %d", nd.ID, nb)
		}
		nd.UpdateLink(nb, w+1, now)
	}
	flows := sim.DrawPairs(nw.Phys.N(), 8, 1)
	calls = 0
	s, err := newSampler(flows).measure(nw, cfg.Metric, cfg.Metric.Name(), flows, now, 0, traffic.NewEngine(nw, 1))
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 || s.SetSize == 0 {
		t.Fatalf("a sample ran the ANS selector %d times (set size %v)", calls, s.SetSize)
	}
	for _, nd := range nw.Nodes {
		nd.GenerateTCUpdate(now)
	}
	if calls != len(nw.Nodes) {
		t.Errorf("the TCs after the sample ran the ANS selector %d times over %d stale nodes", calls, len(nw.Nodes))
	}
}
