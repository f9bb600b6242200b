package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"qolsr/internal/geom"
	"qolsr/internal/olsr"
	"qolsr/internal/sim"
)

// Validate reads the simulator's medium registry: every name in it is a
// valid kind, lossy or not, and an unknown one is rejected naming them all.
func TestMediumKindsAreTheRegistry(t *testing.T) {
	for _, name := range sim.MediumNames() {
		if err := (Medium{Kind: name}).Validate(); err != nil {
			t.Errorf("medium %q rejected: %v", name, err)
		}
	}
	err := Medium{Kind: "fso"}.Validate()
	if err == nil || !strings.Contains(err.Error(), `"fso"`) {
		t.Fatalf("medium fso: err = %v, want it named", err)
	}
	for _, name := range sim.MediumNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-medium error %q does not list %q", err, name)
		}
	}
}

func TestMediumValidation(t *testing.T) {
	sc := ladderScenario()
	sc.Medium = Medium{Kind: "nope"}
	if err := sc.WithDefaults().Validate(); err == nil {
		t.Error("unknown medium accepted")
	}
	sc.Medium = Medium{Kind: "lossy", Loss: 1.5}
	if err := sc.WithDefaults().Validate(); err == nil {
		t.Error("loss above 1 accepted")
	}
	sc.Medium = Medium{Kind: "lossy", Loss: 0.2, DistanceLoss: 2}
	if err := sc.WithDefaults().Validate(); err == nil {
		t.Error("distance loss above 1 accepted")
	}
	sc.Medium = Medium{Kind: "lossy", Loss: 0.2}
	if err := sc.WithDefaults().Validate(); err != nil {
		t.Errorf("valid lossy medium rejected: %v", err)
	}
	// Lossy-only knobs on the (default) ideal medium would be silently
	// ignored at run time — Validate must reject them.
	sc.Medium = Medium{Loss: 0.3}
	if err := sc.WithDefaults().Validate(); err == nil {
		t.Error("loss on the ideal medium accepted")
	}
	sc.Medium = Medium{Kind: "ideal", DistanceLoss: 0.2}
	if err := sc.WithDefaults().Validate(); err == nil {
		t.Error("distance loss on the ideal medium accepted")
	}
}

func TestLossActionsRequireLossyMedium(t *testing.T) {
	sc := ladderScenario()
	sc.Phases = []Phase{{At: 20 * time.Second, Action: SetLoss{Loss: 0.3}}}
	if err := sc.WithDefaults().Validate(); err == nil {
		t.Error("set-loss accepted on the ideal medium")
	}
	sc.Phases = []Phase{{At: 20 * time.Second, Action: DegradeLink{A: 0, B: 1, Loss: 0.5}}}
	if err := sc.WithDefaults().Validate(); err == nil {
		t.Error("degrade-link accepted on the ideal medium")
	}
	sc.Medium = Medium{Kind: "lossy"}
	if err := sc.WithDefaults().Validate(); err != nil {
		t.Errorf("degrade-link rejected on the lossy medium: %v", err)
	}
	// Action-level validation still applies.
	sc.Phases = []Phase{{At: 20 * time.Second, Action: SetLoss{Loss: 1}}}
	if err := sc.WithDefaults().Validate(); err == nil {
		t.Error("set-loss 1 accepted")
	}
	sc.Phases = []Phase{{At: 20 * time.Second, Action: DegradeLink{A: 1, B: 1, Loss: 0.5}}}
	if err := sc.WithDefaults().Validate(); err == nil {
		t.Error("degrade-link with equal endpoints accepted")
	}
}

// TestLossyLadderExecutes runs the ladder fixture over the lossy medium
// with measured QoS and checks the medium actually bites: frames are lost,
// the loss-shaping phases fire, and the run is reproducible.
func TestLossyLadderExecutes(t *testing.T) {
	sc := ladderScenario()
	sc.Medium = Medium{Kind: "lossy", Loss: 0.3}
	sc.Protocol.LinkSensing = olsr.SenseDelivery
	sc.Phases = []Phase{
		{At: 20 * time.Second, Action: SetLoss{Loss: 0.6}},
		{At: 26 * time.Second, Action: SetLoss{Loss: 0.1}},
	}
	run := func() *RunResult {
		rr, err := Execute(context.Background(), sc, 3, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rr
	}
	r1 := run()
	r2 := run()
	if r1.Data != r2.Data || r1.Control != r2.Control {
		t.Errorf("lossy run not reproducible: %+v/%+v vs %+v/%+v", r1.Data, r1.Control, r2.Data, r2.Control)
	}
	if r1.Data.Lost == 0 {
		t.Error("lossy medium lost no data packets over a 30% loss run")
	}
	if len(r1.Reconvergence) != 2 {
		t.Errorf("reconvergence records = %d, want 2 (both set-loss phases)", len(r1.Reconvergence))
	}
}

// TestDegradeLinkExecutes drives a degrade/clear cycle on an explicit
// two-node topology.
func TestDegradeLinkExecutes(t *testing.T) {
	sc := Scenario{
		Name: "degrade-pair",
		Topology: Topology{
			Points: []geom.Point{{X: 10, Y: 10}, {X: 60, Y: 10}},
			Field:  geom.Field{Width: 100, Height: 100},
			Radius: 100,
		},
		Medium:      Medium{Kind: "lossy"},
		Traffic:     Traffic{Flows: 2},
		Duration:    30 * time.Second,
		Warmup:      10 * time.Second,
		SampleEvery: 2 * time.Second,
		Phases: []Phase{
			{At: 14 * time.Second, Action: DegradeLink{A: 0, B: 1, Loss: 0.9}},
			{At: 24 * time.Second, Action: DegradeLink{A: 0, B: 1, Loss: -1}},
		},
	}
	rr, err := Execute(context.Background(), sc, 5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Data.Lost == 0 {
		t.Error("degraded link lost nothing at 90% loss")
	}
	// A degrade targeting a non-existent link surfaces as a phase error.
	sc.Phases = []Phase{{At: 14 * time.Second, Action: DegradeLink{A: 0, B: 5, Loss: 0.9}}}
	if _, err := Execute(context.Background(), sc, 5, 0, nil); err == nil {
		t.Error("degrade-link on a missing link did not fail the run")
	}
}

// A probe sample runs the engine through the medium's drain window, TTL+2
// hop bounds; on the default lossy medium that is 66 × 5.296 ms. A sampling
// interval that does not exceed it would take the next sample after its
// time stamp, so Validate must reject it and name the minimum. Above it,
// every sample measures the network at its own time: the sample just before
// a total link failure still sees every probe flow connected.
func TestLossyProbeSamplingOutlastsDrain(t *testing.T) {
	sc := Scenario{
		Name: "lossy-line",
		Topology: Topology{
			Points: []geom.Point{{X: 10, Y: 50}, {X: 90, Y: 50}, {X: 170, Y: 50}, {X: 250, Y: 50}},
			Field:  geom.Field{Width: 300, Height: 100},
			Radius: 100,
		},
		Medium:      Medium{Kind: "lossy"},
		Traffic:     Traffic{Flows: 6},
		Duration:    11 * time.Second,
		Warmup:      10 * time.Second,
		SampleEvery: 150 * time.Millisecond,
		Phases:      []Phase{{At: 10160 * time.Millisecond, Action: FailFraction{Fraction: 1}}},
	}
	err := sc.WithDefaults().Validate()
	if err == nil || !strings.Contains(err.Error(), "349.536ms") {
		t.Fatalf("150ms probe sampling on the lossy medium: got %v, want an error naming the 349.536ms drain window", err)
	}
	sc.SampleEvery = 349536 * time.Microsecond
	if err := sc.WithDefaults().Validate(); err == nil {
		t.Fatal("sampling exactly at the drain window accepted")
	}

	sc.SampleEvery = 400 * time.Millisecond
	sc.Phases = []Phase{{At: 10410 * time.Millisecond, Action: FailFraction{Fraction: 1}}}
	rr, err := Execute(context.Background(), sc, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rr.Samples {
		want := 6
		if s.Time > 10410*time.Millisecond {
			want = 0
		}
		if s.Connected != want {
			t.Errorf("sample at %v: %d flows connected, want %d", s.Time, s.Connected, want)
		}
	}
}

// TestEncodeJSONRecordsDistanceLoss: the encoded program carries the
// medium's distance loss beside its base loss, so a scenario with the
// component does not read like one without it.
func TestEncodeJSONRecordsDistanceLoss(t *testing.T) {
	sc := ladderScenario()
	sc.Medium = Medium{Kind: "lossy", Loss: 0.1, DistanceLoss: 0.2}
	var buf bytes.Buffer
	if err := (&Result{Scenario: sc, Seed: 1}).EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Scenario map[string]any `json:"scenario"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if got := doc.Scenario["distance_loss"]; got != 0.2 {
		t.Errorf("distance_loss = %v, want 0.2 in %s", got, buf.Bytes())
	}
}
