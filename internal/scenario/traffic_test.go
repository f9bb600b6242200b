package scenario

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"qolsr/internal/traffic"
)

// mixScenario is the ladder fixture under a sustained flow-class mix
// instead of probes.
func mixScenario() Scenario {
	sc := ladderScenario()
	sc.Name = "test-ladder-mix"
	sc.Phases = nil
	sc.Traffic = Traffic{Mix: []traffic.Spec{
		{Class: "cbr", Count: 2, RateBps: 8192, QoS: traffic.Requirements{MaxDelay: 50 * time.Millisecond}},
		{Class: "video", Count: 2, RateBps: 8192},
	}}
	return sc
}

// TestLegacyProbeCompat locks the satellite contract: a scenario using the
// legacy Traffic.Flows probe field keeps its exact pre-engine behaviour —
// the defaulting, the probe workload, and byte-identical encodings (the
// golden tests enforce the bytes; this test checks the shape).
func TestLegacyProbeCompat(t *testing.T) {
	sc := ladderScenario().WithDefaults()
	if sc.Traffic.Flows != 6 || len(sc.Traffic.Mix) != 0 {
		t.Fatalf("legacy traffic mangled by defaults: %+v", sc.Traffic)
	}
	zero := Scenario{Topology: ladderScenario().Topology}.WithDefaults()
	if zero.Traffic.Flows != 10 {
		t.Errorf("zero traffic defaults to %d probes, want 10", zero.Traffic.Flows)
	}

	res, err := Execute(context.Background(), sc, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traffic != nil {
		t.Error("legacy probe run produced a traffic report")
	}
	for _, s := range res.Samples {
		if s.TrafficSent != 0 || s.TrafficCompleted != 0 || s.TrafficDelivered != 0 || s.TrafficThroughputBps != 0 {
			t.Fatalf("legacy sample carries traffic fields: %+v", s)
		}
	}

	// The JSON document must not grow any traffic keys in legacy mode —
	// that is what keeps the golden files valid.
	full := &Result{Scenario: sc, Seed: 1, Runs: []*RunResult{res}}
	var buf bytes.Buffer
	if err := full.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"traffic_sent", "traffic_mix", "\"traffic\"", "traffic_aggregate"} {
		if strings.Contains(buf.String(), key) {
			t.Errorf("legacy JSON contains %s", key)
		}
	}
	if !strings.Contains(buf.String(), "\"flows\": 6") {
		t.Error("legacy JSON lost the flows field")
	}
}

func TestTrafficMixValidation(t *testing.T) {
	both := mixScenario()
	both.Traffic.Flows = 5
	if err := both.WithDefaults().Validate(); err == nil {
		t.Error("Flows+Mix accepted")
	}
	badClass := mixScenario()
	badClass.Traffic.Mix[0].Class = "warez"
	if err := badClass.WithDefaults().Validate(); err == nil {
		t.Error("unknown flow class accepted")
	}
	late := mixScenario()
	late.Traffic.Mix[0].Start = time.Hour
	if err := late.WithDefaults().Validate(); err == nil {
		t.Error("start past duration accepted")
	}
	if err := mixScenario().WithDefaults().Validate(); err != nil {
		t.Fatalf("valid mix rejected: %v", err)
	}
}

func TestExecuteMixScenario(t *testing.T) {
	sc := mixScenario()
	res, err := Execute(context.Background(), sc, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traffic == nil {
		t.Fatal("mix run has no traffic report")
	}
	rep := res.Traffic
	if len(rep.Flows) != 4 {
		t.Fatalf("flow reports = %d, want 4", len(rep.Flows))
	}
	if rep.Total.Sent == 0 {
		t.Fatal("no packets offered")
	}
	if rep.Total.Delivered == 0 || rep.Total.Delivered > rep.Total.Sent {
		t.Fatalf("implausible delivery %d/%d", rep.Total.Delivered, rep.Total.Sent)
	}
	// Ideal medium, small static ladder: admitted flows should be
	// satisfied, nothing violated.
	if rep.Total.Admitted == 0 {
		t.Error("no flow admitted on a converged static ladder")
	}
	if rep.Total.Violated != 0 {
		t.Errorf("violations on the ideal medium at trivial load: %+v", rep.Total)
	}

	// Samples after warmup must account the sustained load and carry a
	// packet-based delivery ratio.
	var sawTraffic bool
	for _, s := range res.Samples {
		if s.TrafficSent > 0 {
			sawTraffic = true
		}
		if s.TrafficCompleted > 0 && s.Delivery != float64(s.TrafficDelivered)/float64(s.TrafficCompleted) {
			t.Fatalf("engine-mode delivery %g != %d/%d", s.Delivery, s.TrafficDelivered, s.TrafficCompleted)
		}
	}
	if !sawTraffic {
		t.Error("no sample saw traffic")
	}

	// The encoders must surface the traffic block and aggregate.
	full := &Result{Scenario: sc.WithDefaults(), Seed: 1, Runs: []*RunResult{res}}
	var buf bytes.Buffer
	if err := full.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"\"traffic\"", "traffic_mix", "traffic_aggregate", "violation_ratio", "\"class\": \"video\""} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("mix JSON missing %s", key)
		}
	}
	var csv bytes.Buffer
	if err := full.EncodeCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"traffic_sent", "traffic_all_violation_ratio", "traffic_cbr_admitted"} {
		if !strings.Contains(csv.String(), key) {
			t.Errorf("mix CSV missing %s rows", key)
		}
	}
	var tbl bytes.Buffer
	if err := full.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "# traffic") {
		t.Error("table missing traffic section")
	}
	checkColumnsAlign(t, tbl.String())
}

func TestExecuteMixDeterministic(t *testing.T) {
	sc := mixScenario()
	run := func() *bytes.Buffer {
		res, err := Execute(context.Background(), sc, 3, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		full := &Result{Scenario: sc.WithDefaults(), Seed: 3, Runs: []*RunResult{res}}
		var buf bytes.Buffer
		if err := full.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	if !bytes.Equal(run().Bytes(), run().Bytes()) {
		t.Error("identical mix executions encode differently")
	}
}
