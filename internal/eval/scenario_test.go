package eval

import (
	"bytes"
	"context"
	"testing"
	"time"

	"qolsr/internal/geom"
	"qolsr/internal/olsr"
	"qolsr/internal/scenario"
	"qolsr/internal/traffic"
)

// testScenario is a small explicit-topology program that runs in
// milliseconds of wall time.
func testScenario() scenario.Scenario {
	pts := []geom.Point{
		{X: 20, Y: 60}, {X: 100, Y: 60}, {X: 180, Y: 60}, {X: 260, Y: 60},
		{X: 20, Y: 140}, {X: 100, Y: 140}, {X: 180, Y: 140}, {X: 260, Y: 140},
	}
	return scenario.Scenario{
		Name:        "replicate-ladder",
		Topology:    scenario.Topology{Points: pts, Field: geom.Field{Width: 300, Height: 300}, Radius: 100},
		Traffic:     scenario.Traffic{Flows: 5},
		Duration:    24 * time.Second,
		Warmup:      12 * time.Second,
		SampleEvery: 2 * time.Second,
		Phases: []scenario.Phase{
			{At: 15 * time.Second, Action: scenario.FailLink{A: 1, B: 2}},
			{At: 20 * time.Second, Action: scenario.RestoreLink{A: 1, B: 2}},
		},
	}
}

// TestScenarioWorkerDeterminism is the acceptance check: a fixed seed must
// yield bit-identical encoded output for any worker budget.
func TestScenarioWorkerDeterminism(t *testing.T) {
	encode := func(workers int) ([]byte, []byte) {
		res, err := RunScenario(context.Background(), testScenario(),
			Options{Workers: workers, Runs: 4, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		var j, c bytes.Buffer
		if err := res.EncodeJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := res.EncodeCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.Bytes(), c.Bytes()
	}
	j1, c1 := encode(1)
	j8, c8 := encode(8)
	if !bytes.Equal(j1, j8) {
		t.Error("JSON differs between Workers=1 and Workers=8")
	}
	if !bytes.Equal(c1, c8) {
		t.Error("CSV differs between Workers=1 and Workers=8")
	}
}

// TestBuiltinScenarioWorkerDeterminism runs a real built-in program
// (scaled to a sparser, shorter deployment so the test stays fast) and
// checks the same bit-identity guarantee.
func TestBuiltinScenarioWorkerDeterminism(t *testing.T) {
	base, err := scenario.ByName("static-baseline", "fnbp")
	if err != nil {
		t.Fatal(err)
	}
	dep := *base.Topology.Deployment
	dep.Field = geom.Field{Width: 300, Height: 300}
	dep.Degree = 6
	base.Topology.Deployment = &dep
	base.Duration = 30 * time.Second
	base.Warmup = 10 * time.Second

	encode := func(workers int) []byte {
		res, err := RunScenario(context.Background(), base,
			Options{Workers: workers, Runs: 3, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(encode(1), encode(8)) {
		t.Error("built-in scenario JSON differs between Workers=1 and Workers=8")
	}
}

// TestMobilityScenarioWorkerDeterminism locks the cached-routing semantics
// under mobility: with nodes moving, links expiring and probe flows querying
// cached tables every sample, a fixed seed must still yield bit-identical
// output for any worker budget — the cache may change how tables are
// computed, never which table a packet sees at a given virtual time.
func TestMobilityScenarioWorkerDeterminism(t *testing.T) {
	base, err := scenario.ByName("random-waypoint-sparse", "fnbp")
	if err != nil {
		t.Fatal(err)
	}
	dep := *base.Topology.Deployment
	dep.Field = geom.Field{Width: 300, Height: 300}
	dep.Degree = 6
	base.Topology.Deployment = &dep
	base.Duration = 30 * time.Second
	base.Warmup = 10 * time.Second
	base.Traffic.Flows = 6

	encode := func(workers int) []byte {
		res, err := RunScenario(context.Background(), base,
			Options{Workers: workers, Runs: 3, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(encode(1), encode(8)) {
		t.Error("mobility scenario JSON differs between Workers=1 and Workers=8")
	}
}

// TestLossyScenarioWorkerDeterminism is the medium-layer acceptance check:
// a lossy built-in with measured-QoS neighbor selection must yield
// bit-identical encoded output for any worker budget — every loss, jitter
// and queueing decision is keyed per (src, dst, seq), never drawn from
// shared mutable state.
func TestLossyScenarioWorkerDeterminism(t *testing.T) {
	base, err := scenario.ByName("lossy-degrade", "fnbp")
	if err != nil {
		t.Fatal(err)
	}
	dep := *base.Topology.Deployment
	dep.Field = geom.Field{Width: 300, Height: 300}
	dep.Degree = 6
	base.Topology.Deployment = &dep
	base.Duration = 40 * time.Second
	base.Warmup = 10 * time.Second
	base.Phases = []scenario.Phase{
		{At: 20 * time.Second, Action: scenario.SetLoss{Loss: 0.4}},
		{At: 30 * time.Second, Action: scenario.SetLoss{Loss: 0.05}},
	}
	if base.Protocol.LinkSensing != olsr.SenseDelivery {
		t.Fatal("lossy-degrade built-in no longer enables measured QoS")
	}

	encode := func(workers int) []byte {
		res, err := RunScenario(context.Background(), base,
			Options{Workers: workers, Runs: 3, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(encode(1), encode(8)) {
		t.Error("lossy measured-QoS scenario JSON differs between Workers=1 and Workers=8")
	}
}

// TestScenarioTraceWorkerDeterminism: the packet trace is part of the
// determinism contract. A churn-heavy lossy scenario under sustained flows —
// link-failure waves, loss draws and queueing give the tracer every event
// shape — must serialize to the same Chrome trace-event document byte for
// byte whether its replicate runs go one at a time or side by side, and
// every event must satisfy the trace-event schema.
func TestScenarioTraceWorkerDeterminism(t *testing.T) {
	sc := scenario.Scenario{
		Name:     "churn-trace",
		Topology: scenario.Topology{Deployment: &geom.Deployment{Field: geom.Field{Width: 600, Height: 600}, Radius: 100, Degree: 10}},
		Protocol: scenario.Protocol{Selector: "fnbp"},
		Medium:   scenario.Medium{Kind: "lossy", Loss: 0.08, DistanceLoss: 0.15},
		Traffic: scenario.Traffic{Mix: []traffic.Spec{
			{Class: "cbr", Count: 4, RateBps: 8192},
			{Class: "poisson", Count: 2, RateBps: 8192},
		}},
		Duration: 30 * time.Second,
		Warmup:   10 * time.Second,
		Obs:      scenario.Obs{TraceEvery: 2},
	}
	for k := range 2 {
		at := time.Duration(12+8*k) * time.Second
		sc.Phases = append(sc.Phases,
			scenario.Phase{At: at, Action: scenario.FailFraction{Fraction: 0.15}},
			scenario.Phase{At: at + 4*time.Second, Action: scenario.RestoreAll{}},
		)
	}
	encode := func(workers int) ([]byte, *scenario.Result) {
		res, err := RunScenario(context.Background(), sc, Options{Workers: workers, Runs: 2, Seed: 7})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := res.EncodeTrace(&buf); err != nil {
			t.Fatalf("workers=%d: encode: %v", workers, err)
		}
		return buf.Bytes(), res
	}
	serial, res := encode(1)
	if parallel, _ := encode(8); !bytes.Equal(serial, parallel) {
		t.Fatal("workers=1 and workers=8 serialized different traces")
	}
	traced := 0
	for _, run := range res.Runs {
		traced += len(run.Trace)
		// The document is obs.WriteTrace's, whose tests hold that encoding
		// to the schema; what the run contributes is the events.
		for i, ev := range run.Trace {
			if ev.Name == "" || (ev.Phase != "X" && ev.Phase != "i") || ev.Ts < 0 {
				t.Fatalf("run %d event %d breaks the trace-event schema: %+v", run.Run, i, ev)
			}
		}
	}
	if traced == 0 {
		t.Fatal("churn fixture produced no trace events")
	}
}

func TestStreamScenarioEvents(t *testing.T) {
	sc := testScenario()
	events, wait := StreamScenario(context.Background(), sc, Options{Runs: 2, Seed: 1})
	sampleCount := make(map[int]int)
	runSeen := make(map[int]bool)
	for ev := range events {
		switch ev.Kind {
		case ScenarioEventSample:
			sampleCount[ev.Run]++
		case ScenarioEventRun:
			runSeen[ev.Run] = true
			if ev.Result == nil {
				t.Error("run event without result")
			}
		}
	}
	res, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	want := len(sc.SampleTimes())
	for run := 0; run < 2; run++ {
		if sampleCount[run] != want {
			t.Errorf("run %d streamed %d samples, want %d", run, sampleCount[run], want)
		}
		if !runSeen[run] {
			t.Errorf("run %d completion never streamed", run)
		}
		if res.Runs[run] == nil || res.Runs[run].Run != run {
			t.Errorf("result for run %d missing or mislabeled", run)
		}
	}
	if len(res.Runs) != 2 {
		t.Errorf("runs = %d, want 2", len(res.Runs))
	}
}

func TestRunScenarioCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunScenario(ctx, testScenario(), Options{Runs: 2}); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunScenarioInvalid(t *testing.T) {
	sc := testScenario()
	sc.Protocol.Selector = "nope"
	if _, err := RunScenario(context.Background(), sc, Options{Runs: 1}); err == nil {
		t.Error("invalid scenario accepted")
	}
}

func TestRunScenarioProgress(t *testing.T) {
	var lines int
	_, err := RunScenario(context.Background(), testScenario(), Options{
		Runs:     2,
		Progress: func(string, ...any) { lines++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if lines != 2 {
		t.Errorf("progress lines = %d, want 2", lines)
	}
}

// TestTrafficScenarioWorkerDeterminism is the traffic-engine acceptance
// check: a lossy scenario under sustained flow-class load (all three
// classes, admission control, per-flow delay quantiles) must yield
// bit-identical encoded output — traffic report included — for any worker
// budget, because every packet arrival and size draw is keyed per
// (seed, flow, packet-seq).
func TestTrafficScenarioWorkerDeterminism(t *testing.T) {
	base, err := scenario.ByName("load-ramp", "fnbp")
	if err != nil {
		t.Fatal(err)
	}
	dep := *base.Topology.Deployment
	dep.Field = geom.Field{Width: 300, Height: 300}
	dep.Degree = 7
	base.Topology.Deployment = &dep
	base.Duration = 40 * time.Second
	base.Warmup = 12 * time.Second
	base.Traffic = scenario.Traffic{Mix: []traffic.Spec{
		{Class: "cbr", Count: 2, RateBps: 8192, QoS: traffic.Requirements{MaxDelay: 60 * time.Millisecond}},
		{Class: "poisson", Count: 2, RateBps: 8192},
		{Class: "video", Count: 2, RateBps: 8192, Start: 20 * time.Second,
			QoS: traffic.Requirements{MaxJitter: 30 * time.Millisecond}},
	}}

	encode := func(workers int) []byte {
		res, err := RunScenario(context.Background(), base,
			Options{Workers: workers, Runs: 3, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one := encode(1)
	if !bytes.Equal(one, encode(8)) {
		t.Error("sustained-traffic lossy scenario JSON differs between Workers=1 and Workers=8")
	}
	if !bytes.Contains(one, []byte("\"traffic\"")) || !bytes.Contains(one, []byte("traffic_aggregate")) {
		t.Error("encoded scenario carries no traffic accounting")
	}
}
