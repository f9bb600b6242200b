package qolsr_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"qolsr"
)

// rootScenario is a tiny explicit-topology program for fast API tests.
func rootScenario() qolsr.Scenario {
	pts := []qolsr.Point{
		{X: 20, Y: 60}, {X: 100, Y: 60}, {X: 180, Y: 60},
		{X: 20, Y: 140}, {X: 100, Y: 140}, {X: 180, Y: 140},
	}
	return qolsr.Scenario{
		Name:        "root-test",
		Topology:    qolsr.ScenarioTopology{Points: pts, Field: qolsr.Field{Width: 300, Height: 300}, Radius: 100},
		Traffic:     qolsr.ScenarioTraffic{Flows: 4},
		Duration:    20 * time.Second,
		Warmup:      12 * time.Second,
		SampleEvery: 2 * time.Second,
		Phases: []qolsr.ScenarioPhase{
			{At: 15 * time.Second, Action: qolsr.ActionFailLink{A: 0, B: 1}},
		},
	}
}

func TestRunScenarioRoot(t *testing.T) {
	res, err := qolsr.RunScenario(context.Background(), rootScenario(),
		qolsr.WithRuns(2), qolsr.WithSeed(3), qolsr.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(res.Runs))
	}
	for _, run := range res.Runs {
		if run.Nodes != 6 || len(run.Samples) == 0 {
			t.Errorf("run %d: nodes=%d samples=%d", run.Run, run.Nodes, len(run.Samples))
		}
		if len(run.Reconvergence) != 1 {
			t.Errorf("run %d: reconvergence records = %d, want 1", run.Run, len(run.Reconvergence))
		}
	}
	var buf bytes.Buffer
	if err := res.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"schema": "qolsr-scenario/v2"`) {
		t.Error("JSON missing schema marker")
	}
	buf.Reset()
	if err := res.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "root-test") {
		t.Error("table missing scenario name")
	}
}

func TestStreamScenarioRoot(t *testing.T) {
	events, wait := qolsr.NewRunner(qolsr.WithRuns(1)).StreamScenario(context.Background(), rootScenario())
	var samples, runs int
	for ev := range events {
		switch ev.Kind {
		case qolsr.ScenarioEventSample:
			samples++
		case qolsr.ScenarioEventRun:
			runs++
		}
	}
	res, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 || runs != 1 {
		t.Errorf("streamed %d samples, %d runs", samples, runs)
	}
	if agg := res.Aggregate(); len(agg) != samples {
		t.Errorf("aggregate has %d entries, want %d", len(agg), samples)
	}
}

func TestScenarioRegistryRoot(t *testing.T) {
	names := qolsr.ScenarioNames()
	if len(names) == 0 {
		t.Fatal("no built-in scenarios")
	}
	defs := qolsr.BuiltInScenarios()
	if len(defs) != len(names) {
		t.Errorf("definitions = %d, names = %d", len(defs), len(names))
	}
	sc, err := qolsr.ScenarioByName(names[0], "topofilter")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Protocol.Selector != "topofilter" {
		t.Errorf("selector = %q", sc.Protocol.Selector)
	}
	if _, err := qolsr.ScenarioByName("bogus", ""); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestRegistryNameLists(t *testing.T) {
	if got := qolsr.RoutePolicyNames(); len(got) != 2 {
		t.Errorf("RoutePolicyNames = %v", got)
	}
	if got := qolsr.QuantityNames(); len(got) != 4 {
		t.Errorf("QuantityNames = %v", got)
	}
}

// TestScenarioWorkersBitIdentical pins the event core's determinism at the
// API surface: a lossy mobile scenario (keyed medium draws, waypoint churn,
// measured link quality) produces byte-identical results whether its
// replicate runs execute on one worker or eight.
func TestScenarioWorkersBitIdentical(t *testing.T) {
	sc := qolsr.Scenario{
		Name: "workers-bit-identity",
		Topology: qolsr.ScenarioTopology{
			Deployment: &qolsr.Deployment{
				Field:  qolsr.Field{Width: 400, Height: 400},
				Radius: 100,
				Degree: 8,
			},
		},
		Protocol: qolsr.ScenarioProtocol{MeasuredQoS: true},
		Medium:   qolsr.ScenarioMedium{Kind: "lossy", Loss: 0.1, DistanceLoss: 0.2},
		Mobility: &qolsr.ScenarioMobility{
			Model: qolsr.Waypoint{
				Field:    qolsr.Field{Width: 400, Height: 400},
				MinSpeed: 1,
				MaxSpeed: 5,
				Pause:    2 * time.Second,
			},
		},
		Traffic:     qolsr.ScenarioTraffic{Flows: 4},
		Duration:    30 * time.Second,
		Warmup:      10 * time.Second,
		SampleEvery: 5 * time.Second,
	}
	encode := func(workers int) string {
		res, err := qolsr.RunScenario(context.Background(), sc,
			qolsr.WithRuns(4), qolsr.WithSeed(9), qolsr.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	one := encode(1)
	eight := encode(8)
	if one != eight {
		t.Error("lossy mobile scenario results differ between 1 and 8 workers")
	}
}
