package traffic

import (
	"strings"
	"testing"
	"time"

	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/olsr"
	"qolsr/internal/sim"
)

func TestClassRegistry(t *testing.T) {
	names := ClassNames()
	if len(names) != 3 || names[0] != "cbr" || names[1] != "poisson" || names[2] != "video" {
		t.Errorf("ClassNames = %v", names)
	}
	for _, c := range Classes() {
		if c.Description == "" {
			t.Errorf("class %s has no description", c.Name)
		}
		if err := CheckClass(c.Name); err != nil {
			t.Errorf("CheckClass(%s): %v", c.Name, err)
		}
	}
	err := CheckClass("tcp")
	if err == nil {
		t.Fatal("unknown class accepted")
	}
	for _, want := range ClassNames() {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list %q", err, want)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	good := Spec{Class: "cbr", Count: 2}.WithDefaults()
	if err := good.Validate(); err != nil {
		t.Fatalf("defaulted spec invalid: %v", err)
	}
	if good.RateBps != DefaultRateBps || good.PacketBytes != DefaultPacketBytes {
		t.Errorf("defaults not applied: %+v", good)
	}
	bad := []Spec{
		{Class: "nope", Count: 1, RateBps: 100, PacketBytes: 512},
		{Class: "cbr", Count: 0, RateBps: 100, PacketBytes: 512},
		{Class: "cbr", Count: 1, RateBps: -1, PacketBytes: 512},
		{Class: "cbr", Count: 1, RateBps: 100, PacketBytes: 8},
		{Class: "cbr", Count: 1, RateBps: 100, PacketBytes: 512, Start: -time.Second},
		{Class: "cbr", Count: 1, RateBps: 100, PacketBytes: 512, QoS: Requirements{MinBandwidth: -1}},
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, sp)
		}
	}
}

func TestFlowsFromSpecs(t *testing.T) {
	pairs := [][2]int32{{0, 1}, {1, 2}, {2, 0}}
	specs := []Spec{
		{Class: "cbr", Count: 2},
		{Class: "video", Count: 1, Start: 5 * time.Second},
	}
	flows, err := FlowsFromSpecs(specs, pairs, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 3 {
		t.Fatalf("flows = %d, want 3", len(flows))
	}
	if flows[0].Start != 10*time.Second || flows[2].Start != 5*time.Second {
		t.Errorf("start defaulting wrong: %v %v", flows[0].Start, flows[2].Start)
	}
	if flows[2].Class != "video" || flows[2].Src != 2 || flows[2].Dst != 0 {
		t.Errorf("third flow wrong: %+v", flows[2])
	}
	for i, f := range flows {
		if f.ID != i {
			t.Errorf("flow %d has ID %d", i, f.ID)
		}
	}
	if _, err := FlowsFromSpecs([]Spec{{Class: "cbr", Count: 4}}, pairs, 0); err == nil {
		t.Error("mix larger than pair budget accepted")
	}
}

func TestSourceSchedulesDeterministic(t *testing.T) {
	for _, class := range ClassNames() {
		f := Flow{ID: 3, Class: class, RateBps: 8192, PacketBytes: 512}
		walk := func() []time.Duration {
			s := newSource(99, f)
			var ts []time.Duration
			at := s.first(2 * time.Second)
			for i := 0; i < 200; i++ {
				ts = append(ts, at)
				at = s.next(at, uint64(i+1))
			}
			return ts
		}
		a, b := walk(), walk()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: departure %d differs across identical walks: %v vs %v", class, i, a[i], b[i])
			}
			if i > 0 && a[i] < a[i-1] {
				t.Fatalf("%s: departures not monotone at %d: %v then %v", class, i, a[i-1], a[i])
			}
		}
	}
}

func TestSourceMeanRates(t *testing.T) {
	// Each class's long-run offered rate should approximate RateBps.
	for _, class := range ClassNames() {
		f := Flow{ID: 1, Class: class, RateBps: 8192, PacketBytes: 512}
		s := newSource(7, f)
		var bytes int
		at := s.first(0)
		horizon := 200 * time.Second
		for i := uint64(0); at < horizon; i++ {
			bytes += s.size(i)
			at = s.next(at, i+1)
		}
		rate := float64(bytes) / horizon.Seconds()
		if rate < 0.7*f.RateBps || rate > 1.3*f.RateBps {
			t.Errorf("%s: long-run rate %.0f B/s, want ~%.0f", class, rate, f.RateBps)
		}
	}
}

// gateNetwork builds a 4-node topology with a wide direct link 0-3 and a
// narrow 3-hop chain 0-1-2-3, runs the protocol to convergence, and
// returns the network.
//
//	0 ──(10)── 3
//	0 ─(5)─ 1 ─(5)─ 2 ─(5)─ 3
func gateNetwork(t *testing.T) *sim.Network {
	t.Helper()
	g := graph.New(4)
	for _, l := range []struct {
		a, b int32
		w    float64
	}{{0, 3, 10}, {0, 1, 5}, {1, 2, 5}, {2, 3, 5}} {
		e := mustAddEdge(g, l.a, l.b)
		if err := g.SetWeight("bandwidth", e, l.w); err != nil {
			t.Fatal(err)
		}
	}
	nw, err := sim.NewNetwork(g, olsr.DefaultConfig(metric.Bandwidth()), sim.NetworkOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	nw.Run(30 * time.Second)
	return nw
}

func TestAdmissionDelayBoundAndRestore(t *testing.T) {
	nw := gateNetwork(t)
	gate := &Gate{NW: nw}

	// The ideal medium's hop bound is 1ms: the direct path (1 hop)
	// satisfies a 2ms ceiling, the 3-hop chain does not.
	req := Requirements{MaxDelay: 2 * time.Millisecond}
	dec := gate.Decide(0, 3, req)
	if !dec.Admitted || dec.Hops != 1 {
		t.Fatalf("direct path not admitted: %+v", dec)
	}
	if dec.PathBandwidth != 10 {
		t.Errorf("direct path bandwidth = %g, want 10", dec.PathBandwidth)
	}

	// Fail the direct link: the protocol reroutes over the chain, whose
	// composed delay bound exceeds the ceiling — the gate must reject,
	// and the oracle agrees no satisfying path exists (correct reject).
	if err := nw.FailLink(0, 3); err != nil {
		t.Fatal(err)
	}
	nw.Run(nw.Engine.Now() + 30*time.Second)
	dec = gate.Decide(0, 3, req)
	if dec.Admitted {
		t.Fatalf("3-hop chain admitted past a 2ms ceiling: %+v", dec)
	}
	if dec.Reason != ReasonDelay {
		t.Errorf("reject reason = %q, want %q", dec.Reason, ReasonDelay)
	}
	if dec.Hops != 3 || dec.PathDelay != 3*time.Millisecond {
		t.Errorf("walked path = %d hops, delay %v; want 3 hops, 3ms", dec.Hops, dec.PathDelay)
	}
	if dec.Feasible {
		t.Error("oracle found a satisfying path while the only route is 3 hops")
	}

	// Restore the link and let the protocol reconverge: admitted again.
	if err := nw.RestoreLink(0, 3); err != nil {
		t.Fatal(err)
	}
	nw.Run(nw.Engine.Now() + 30*time.Second)
	dec = gate.Decide(0, 3, req)
	if !dec.Admitted {
		t.Fatalf("flow still rejected after RestoreLink: %+v", dec)
	}
}

func TestAdmissionBandwidthFloor(t *testing.T) {
	nw := gateNetwork(t)
	gate := &Gate{NW: nw}

	// The best path 0->3 is the direct weight-10 link; a floor of 8
	// passes, a floor of 12 cannot be met by any path.
	if dec := gate.Decide(0, 3, Requirements{MinBandwidth: 8}); !dec.Admitted {
		t.Fatalf("floor 8 rejected on a weight-10 path: %+v", dec)
	}
	dec := gate.Decide(0, 3, Requirements{MinBandwidth: 12})
	if dec.Admitted {
		t.Fatalf("floor 12 admitted on a weight-10 path: %+v", dec)
	}
	if dec.Reason != ReasonBandwidth {
		t.Errorf("reject reason = %q, want %q", dec.Reason, ReasonBandwidth)
	}
	if dec.Feasible {
		t.Error("oracle found a 12-wide path on a max-weight-10 graph")
	}
}

func TestAdmissionNoRoute(t *testing.T) {
	// Two isolated components: no route, and the oracle agrees.
	g := graph.New(3)
	e := mustAddEdge(g, 0, 1)
	if err := g.SetWeight("bandwidth", e, 5); err != nil {
		t.Fatal(err)
	}
	nw, err := sim.NewNetwork(g, olsr.DefaultConfig(metric.Bandwidth()), sim.NetworkOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	nw.Run(20 * time.Second)
	dec := (&Gate{NW: nw}).Decide(0, 2, Requirements{})
	if dec.Admitted || dec.Reason != ReasonNoRoute || dec.Feasible {
		t.Errorf("isolated destination decision: %+v", dec)
	}
}

// mustAddEdge adds the edge a–b to a statically known-good fixture,
// panicking on an error.
func mustAddEdge(g *graph.Graph, a, b int32) int {
	e, err := g.AddEdge(a, b)
	if err != nil {
		panic(err)
	}
	return e
}
