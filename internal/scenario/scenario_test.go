package scenario

import (
	"context"
	"reflect"
	"testing"
	"time"

	"qolsr/internal/geom"
	"qolsr/internal/olsr"
	"qolsr/internal/sim"
)

// ladderScenario is the deterministic test fixture: a 2×4 ladder (explicit
// positions, so every run sees the same geometry) with redundant paths, a
// mid-run failure of one named link and its restore.
func ladderScenario() Scenario {
	pts := []geom.Point{
		{X: 20, Y: 60}, {X: 100, Y: 60}, {X: 180, Y: 60}, {X: 260, Y: 60},
		{X: 20, Y: 140}, {X: 100, Y: 140}, {X: 180, Y: 140}, {X: 260, Y: 140},
	}
	return Scenario{
		Name:        "test-ladder",
		Description: "2x4 ladder with one link flap",
		Topology:    Topology{Points: pts, Field: geom.Field{Width: 300, Height: 300}, Radius: 100},
		Protocol:    Protocol{Selector: "fnbp"},
		Traffic:     Traffic{Flows: 6},
		Duration:    30 * time.Second,
		Warmup:      16 * time.Second,
		SampleEvery: 2 * time.Second,
		Phases: []Phase{
			{At: 21 * time.Second, Action: FailLink{A: 1, B: 2}},
			{At: 27 * time.Second, Action: RestoreLink{A: 1, B: 2}},
		},
	}
}

func TestExecuteLadder(t *testing.T) {
	sc := ladderScenario()
	var streamed []Sample
	res, err := Execute(context.Background(), sc, 1, 0, func(s Sample) { streamed = append(streamed, s) })
	if err != nil {
		t.Fatal(err)
	}
	times := sc.SampleTimes()
	if len(res.Samples) != len(times) {
		t.Fatalf("samples = %d, want %d", len(res.Samples), len(times))
	}
	if !reflect.DeepEqual(streamed, res.Samples) {
		t.Error("streamed samples differ from stored samples")
	}
	if res.Nodes != 8 {
		t.Errorf("nodes = %d, want 8", res.Nodes)
	}
	for i, s := range res.Samples {
		if s.Time != times[i] {
			t.Errorf("sample %d at %v, want %v", i, s.Time, times[i])
		}
	}
	// The ladder has 10 links; the converged pre-failure sample delivers
	// every connected flow.
	pre := res.Samples[2] // t = 20s, one second before the failure
	if pre.Links != 10 {
		t.Errorf("pre-failure links = %d, want 10", pre.Links)
	}
	if pre.Connected == 0 || pre.Delivery != 1 {
		t.Errorf("pre-failure delivery = %g over %d connected flows, want full",
			pre.Delivery, pre.Connected)
	}
	if pre.SetSize <= 0 {
		t.Errorf("pre-failure set size = %g, want positive", pre.SetSize)
	}
	if pre.ControlBPS <= 0 {
		t.Errorf("pre-failure control rate = %g, want positive", pre.ControlBPS)
	}
	// During the failure the link count drops; the ladder stays connected.
	during := res.Samples[3] // t = 22s
	if during.Links != 9 {
		t.Errorf("links during failure = %d, want 9", during.Links)
	}
	if during.Connected != pre.Connected {
		t.Errorf("connected flows changed %d -> %d; ladder should stay connected",
			pre.Connected, during.Connected)
	}
	// Both the failure and the restore open reconvergence windows.
	if len(res.Reconvergence) != 2 {
		t.Fatalf("reconvergence records = %d, want 2", len(res.Reconvergence))
	}
	for _, rc := range res.Reconvergence {
		if !rc.Recovered {
			t.Errorf("phase %q at %v never recovered", rc.Phase, rc.EventTime)
		} else if rc.Duration() <= 0 {
			t.Errorf("phase %q reconvergence %v, want positive", rc.Phase, rc.Duration())
		}
	}
	// The final sample is fully healed.
	last := res.Samples[len(res.Samples)-1]
	if last.Links != 10 || last.Delivery != 1 {
		t.Errorf("final sample links=%d delivery=%g, want healed full delivery", last.Links, last.Delivery)
	}
	if res.Data.Sent == 0 || res.Control.TCBytes == 0 {
		t.Errorf("totals empty: data=%+v control=%+v", res.Data, res.Control)
	}
}

func TestExecuteDeterministic(t *testing.T) {
	sc := ladderScenario()
	a, err := Execute(context.Background(), sc, 7, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(context.Background(), sc, 7, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same (scenario, seed, run) produced different results")
	}
	c, err := Execute(context.Background(), sc, 7, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Samples, c.Samples) {
		t.Error("different runs produced identical samples; streams are not independent")
	}
}

func TestExecuteCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Execute(ctx, ladderScenario(), 1, 0, nil); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestExecuteMobility(t *testing.T) {
	sc := ladderScenario()
	sc.Name = "test-mobile"
	sc.Phases = nil
	sc.Mobility = &Mobility{
		Model: geom.Waypoint{MinSpeed: 1, MaxSpeed: 5, Pause: time.Second},
	}
	res, err := Execute(context.Background(), sc, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebuilds == 0 {
		t.Error("mobility run performed no topology rebuilds")
	}
	if len(res.Samples) != len(sc.SampleTimes()) {
		t.Errorf("samples = %d, want %d", len(res.Samples), len(sc.SampleTimes()))
	}
}

func TestBuiltinRegistry(t *testing.T) {
	names := Names()
	if len(names) != 10 {
		t.Fatalf("built-ins = %d, want 10: %v", len(names), names)
	}
	for _, name := range names {
		for _, sel := range []string{"", "fnbp", "topofilter", "qolsr", "full"} {
			sc, err := ByName(name, sel)
			if err != nil {
				t.Fatalf("ByName(%q, %q): %v", name, sel, err)
			}
			if err := sc.Validate(); err != nil {
				t.Errorf("built-in %q (%q) invalid: %v", name, sel, err)
			}
			want := sel
			if want == "" {
				want = "fnbp"
			}
			if sc.Protocol.Selector != want {
				t.Errorf("ByName(%q, %q) selector = %q", name, sel, sc.Protocol.Selector)
			}
		}
	}
	if _, err := ByName("nope", ""); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := ByName("static-baseline", "nope"); err == nil {
		t.Error("unknown selector accepted")
	}
	// Built-ins are values built fresh per call: editing one result leaves
	// the next one intact.
	a, _ := ByName("churn-storm", "")
	a.Phases[0].At, a.Topology.Deployment.Degree = 0, 1
	if b, _ := ByName("churn-storm", ""); b.Phases[0].At == 0 || b.Topology.Deployment.Degree == 1 {
		t.Error("an edit to one ByName result reached the next")
	}
}

func TestValidateRejects(t *testing.T) {
	base := ladderScenario()
	cases := map[string]func(sc *Scenario){
		"no topology":       func(sc *Scenario) { sc.Topology = Topology{} },
		"both sources":      func(sc *Scenario) { sc.Topology.Deployment = builtinDeployment(10) },
		"bad selector":      func(sc *Scenario) { sc.Protocol.Selector = "nope" },
		"rtt sensing":       func(sc *Scenario) { sc.Protocol.LinkSensing = olsr.SenseRTT },
		"host sensing":      func(sc *Scenario) { sc.Protocol.LinkSensing = olsr.SenseHost },
		"nil action":        func(sc *Scenario) { sc.Phases = []Phase{{At: time.Second}} },
		"phase past end":    func(sc *Scenario) { sc.Phases = []Phase{{At: time.Hour, Action: RestoreAll{}}} },
		"warmup past end":   func(sc *Scenario) { sc.Warmup = sc.Duration + time.Second },
		"tiny sampling":     func(sc *Scenario) { sc.SampleEvery = time.Millisecond },
		"self-loop fail":    func(sc *Scenario) { sc.Phases = []Phase{{At: time.Second, Action: FailLink{A: 1, B: 1}}} },
		"bad fail fraction": func(sc *Scenario) { sc.Phases = []Phase{{At: time.Second, Action: FailFraction{Fraction: 1.5}}} },
		"bad fail count":    func(sc *Scenario) { sc.Phases = []Phase{{At: time.Second, Action: FailRandom{}}} },
		"point off field":   func(sc *Scenario) { sc.Topology.Points[0].X = -5 },
	}
	for name, mutate := range cases {
		sc := base.WithDefaults()
		sc.Topology.Points = append([]geom.Point(nil), base.Topology.Points...)
		mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	if err := base.WithDefaults().Validate(); err != nil {
		t.Errorf("fixture invalid: %v", err)
	}
}

func TestSampleTimes(t *testing.T) {
	sc := Scenario{Duration: 10 * time.Second, Warmup: 4 * time.Second, SampleEvery: 3 * time.Second}
	got := sc.SampleTimes()
	want := []time.Duration{4 * time.Second, 7 * time.Second, 10 * time.Second}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SampleTimes = %v, want %v", got, want)
	}
}

// TestDrawFlows pins the flow-endpoint draw Execute uses (sim.DrawPairs):
// clamped to the distinct ordered pairs, no self pair, no repeat.
func TestDrawFlows(t *testing.T) {
	flows := sim.DrawPairs(2, 10, 1)
	if len(flows) != 2 {
		t.Fatalf("flows on 2 nodes = %d, want clamped to 2", len(flows))
	}
	seen := map[[2]int32]bool{}
	for _, f := range sim.DrawPairs(6, 12, 5) {
		if f[0] == f[1] {
			t.Errorf("self flow %v", f)
		}
		if f[0] < 0 || f[0] >= 6 || f[1] < 0 || f[1] >= 6 {
			t.Errorf("flow out of range %v", f)
		}
		if seen[f] {
			t.Errorf("duplicate flow %v", f)
		}
		seen[f] = true
	}
	if sim.DrawPairs(1, 4, 1) != nil {
		t.Error("flows on 1 node should be empty")
	}
}

func TestLatePhasesFireAndSurfaceErrors(t *testing.T) {
	// A phase scheduled after the last sample time (29s > last sample 28s
	// with warmup 16s, every 4s) must still fire and be recorded.
	sc := ladderScenario()
	sc.SampleEvery = 4 * time.Second // samples at 16,20,24,28; duration 30
	sc.Phases = []Phase{{At: 29 * time.Second, Action: FailLink{A: 1, B: 2}}}
	res, err := Execute(context.Background(), sc, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reconvergence) != 1 {
		t.Fatalf("late phase not recorded: %+v", res.Reconvergence)
	}
	if res.Reconvergence[0].Recovered {
		t.Error("phase after the last sample cannot have observed recovery")
	}

	// An erroring late phase must fail the run, not be swallowed.
	sc.Phases = []Phase{{At: 29 * time.Second, Action: FailLink{A: 0, B: 7}}} // no such link
	if _, err := Execute(context.Background(), sc, 1, 0, nil); err == nil {
		t.Error("error from a phase after the last sample was swallowed")
	}
}

func TestRestoreAllSurvivesTopologyChanges(t *testing.T) {
	// RestoreAll must clear failures even for pairs absent from the
	// current topology (mobility can move endpoints out of range between
	// the failure and the heal).
	sc := ladderScenario()
	sc.Phases = []Phase{
		{At: 18 * time.Second, Action: FailLink{A: 1, B: 2}},
		{At: 22 * time.Second, Action: RestoreAll{}},
	}
	res, err := Execute(context.Background(), sc, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Samples[len(res.Samples)-1]
	if last.Links != 10 {
		t.Errorf("links after restore-all = %d, want 10", last.Links)
	}
}

func TestReconvergenceTroughSemantics(t *testing.T) {
	sec := func(s int) time.Duration { return time.Duration(s) * time.Second }
	mk := func(tS int, delivery float64) Sample { return Sample{Time: sec(tS), Delivery: delivery} }

	// Degradation surfaces only at t=18 (soft-state expiry), long after
	// the event at t=11; an early back-at-baseline sample must not count
	// as recovery.
	samples := []Sample{
		mk(10, 0.9),              // pre-event baseline 0.9
		mk(12, 0.9), mk(14, 0.9), // stale routes still "work"
		mk(16, 0.6), mk(18, 0.5), // delayed trough
		mk(20, 0.7), mk(22, 0.9), // climb back
	}
	rcs := reconvergence(samples, []disruption{{desc: "fail", at: sec(11)}}, sec(22))
	if len(rcs) != 1 || !rcs[0].Recovered {
		t.Fatalf("reconvergence = %+v", rcs)
	}
	if rcs[0].RecoveredAt != sec(22) {
		t.Errorf("recovered at %v, want 22s (after the delayed trough)", rcs[0].RecoveredAt)
	}

	// A window with no dip recovers at its first sample.
	rcs = reconvergence(samples[:3], []disruption{{desc: "noop", at: sec(11)}}, sec(14))
	if !rcs[0].Recovered || rcs[0].RecoveredAt != sec(12) {
		t.Errorf("no-dip window = %+v, want recovery at 12s", rcs[0])
	}

	// Both searches stop at the next disruption: the fail event must not
	// claim the recovery the scheduled heal caused, so its window reports
	// not-recovered. The heal's own baseline is the degraded 0.5, so it
	// recovers at its first sample.
	rcs = reconvergence(samples, []disruption{
		{desc: "fail", at: sec(11)},
		{desc: "heal", at: sec(19)},
	}, sec(22))
	if rcs[0].Recovered {
		t.Errorf("fail window claimed the heal's recovery: %+v", rcs[0])
	}
	if !rcs[1].Recovered || rcs[1].RecoveredAt != sec(20) {
		t.Errorf("heal window = %+v, want recovery at 20s", rcs[1])
	}

	// A sample taken exactly at a disruption's fire time reflects that
	// disruption (phases fire before the sample is measured), so it
	// belongs to the new window: the fail at 11s must not claim the
	// back-at-baseline sample measured at the heal's own fire time 20s.
	rcs = reconvergence(samples, []disruption{
		{desc: "fail", at: sec(11)},
		{desc: "heal", at: sec(20)},
	}, sec(22))
	if rcs[0].Recovered {
		t.Errorf("fail window claimed the sample at the heal's fire time: %+v", rcs[0])
	}
	if !rcs[1].Recovered || rcs[1].RecoveredAt != sec(20) {
		t.Errorf("heal window = %+v, want recovery at its own fire-time sample", rcs[1])
	}

	// Never climbing back means never recovered.
	rcs = reconvergence(samples[:6], []disruption{{desc: "fail", at: sec(11)}}, sec(20))
	if rcs[0].Recovered {
		t.Errorf("recovered without reaching baseline: %+v", rcs[0])
	}
}

func TestActionDescriptions(t *testing.T) {
	cases := map[Action]string{
		FailLink{A: 1, B: 2}:        "fail-link 1-2",
		RestoreLink{A: 3, B: 4}:     "restore-link 3-4",
		FailFraction{Fraction: 0.1}: "fail-fraction 0.10",
		FailRandom{Count: 2}:        "fail-random 2",
		RestoreAll{}:                "restore-all",
		Partition{}:                 "partition",
	}
	for a, want := range cases {
		if got := a.Describe(); got != want {
			t.Errorf("Describe = %q, want %q", got, want)
		}
	}
}
