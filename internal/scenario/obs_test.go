package scenario

import (
	"bytes"
	"context"
	"testing"
)

// executeRuns materialises a Result with the given replicate count.
func executeRuns(t *testing.T, sc Scenario, seed int64, runs int) *Result {
	t.Helper()
	res := &Result{Scenario: sc.WithDefaults(), Seed: seed}
	for run := 0; run < runs; run++ {
		rr, err := Execute(context.Background(), sc, seed, run, nil)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		res.Runs = append(res.Runs, rr)
	}
	return res
}

// TestGoldenMetrics pins the -metrics-out document byte for byte on the
// ladder fixture: the registry's collector set, label order and merged
// values across two replicates. Regenerate with -update-golden after an
// intentional instrumentation change.
func TestGoldenMetrics(t *testing.T) {
	sc := ladderScenario()
	sc.Obs.Metrics = true
	res := executeRuns(t, sc.WithDefaults(), 1, 2)
	var buf bytes.Buffer
	if err := res.EncodeMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ladder.metrics.json.golden", buf.Bytes())
}

// Observability must be a pure read layer: running the same scenario with
// metrics and tracing fully on must encode the measurement document to
// exactly the bytes the disabled run produces — no RNG draw, no event
// reordering, no sample perturbation.
func TestObsKeepsMeasurementsBitIdentical(t *testing.T) {
	encode := func(o Obs) []byte {
		sc := mixScenario()
		sc.Obs = o
		res := executeRuns(t, sc, 3, 2)
		var buf bytes.Buffer
		if err := res.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	off := encode(Obs{})
	on := encode(Obs{Metrics: true, TraceEvery: 2})
	if !bytes.Equal(off, on) {
		t.Fatal("enabling metrics+tracing changed the measurement document")
	}
}

// A result with no collected metrics must still encode a well-formed
// document with an empty metrics array, so -metrics-out never emits null.
func TestEncodeMetricsEmpty(t *testing.T) {
	res := &Result{Scenario: ladderScenario().WithDefaults(), Seed: 1}
	var buf bytes.Buffer
	if err := res.EncodeMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"metrics": []`)) {
		t.Fatalf("empty result encoded without an empty metrics array:\n%s", buf.String())
	}
}
