package scenario

import (
	"bytes"
	"context"
	"testing"
	"time"

	"qolsr/internal/traffic"
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

// churnTraceScenario is a churn-heavy lossy fixture under sustained flows —
// link-failure waves, loss draws and queueing give the tracer every event
// shape (multi-hop spans, waits, all drop reasons are possible).
func churnTraceScenario() Scenario {
	sc := Scenario{
		Name:        "churn-trace",
		Description: "trace determinism fixture",
		Topology:    Topology{Deployment: builtinDeployment(10)},
		Protocol:    Protocol{Selector: "fnbp"},
		Medium:      Medium{Kind: "lossy", Loss: 0.08, DistanceLoss: 0.15},
		Traffic: Traffic{Mix: []traffic.Spec{
			{Class: "cbr", Count: 4, RateBps: 8192},
			{Class: "poisson", Count: 2, RateBps: 8192},
		}},
		Duration: 30 * time.Second,
		Warmup:   10 * time.Second,
		Obs:      Obs{TraceEvery: 2},
	}
	for k := 0; k < 2; k++ {
		at := time.Duration(12+8*k) * time.Second
		sc.Phases = append(sc.Phases,
			Phase{At: at, Action: FailFraction{Fraction: 0.15}},
			Phase{At: at + 4*time.Second, Action: RestoreAll{}},
		)
	}
	return sc
}

// The trace is part of the determinism contract: the rebuild barrier's
// worker budget must never reach it. A churn-heavy lossy run must serialize
// to the same Chrome trace-event document byte for byte at workers=1 and
// workers=8, and every event must satisfy the trace-event schema.
func TestTraceWorkersDeterminism(t *testing.T) {
	encode := func(workers int) ([]byte, *Result) {
		sc := churnTraceScenario()
		sc.Workers = workers
		res := executeRuns(t, sc, 7, 2)
		traced := 0
		for _, run := range res.Runs {
			traced += len(run.Trace)
		}
		if traced == 0 {
			t.Fatalf("workers=%d: churn fixture produced no trace events", workers)
		}
		var buf bytes.Buffer
		if err := res.EncodeTrace(&buf); err != nil {
			t.Fatalf("workers=%d: encode: %v", workers, err)
		}
		return buf.Bytes(), res
	}
	serial, res := encode(1)
	parallel, _ := encode(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("workers=1 and workers=8 serialized different traces")
	}
	// The document is obs.WriteTrace's, whose tests hold that encoding to
	// the schema; what the run contributes is the events.
	for _, run := range res.Runs {
		for i, ev := range run.Trace {
			if ev.Name == "" || (ev.Phase != "X" && ev.Phase != "i") || ev.Ts < 0 {
				t.Fatalf("run %d event %d breaks the trace-event schema: %+v", run.Run, i, ev)
			}
		}
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
