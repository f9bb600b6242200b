package scenario

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// The rebuild barrier's worker budget must never reach the results: a
// churn-heavy run on the lossy medium — link-failure waves, loss draws,
// soft-state expiry, routing-table rebuilds — must encode to the same
// JSON document byte for byte whether the per-sample route rebuilds run
// serially or fanned across eight goroutines.
func TestWorkersDeterminism(t *testing.T) {
	base := Scenario{
		Name:        "churn-workers",
		Description: "worker-count determinism fixture",
		Topology:    Topology{Deployment: builtinDeployment(10)},
		Protocol:    Protocol{Selector: "fnbp"},
		Medium:      Medium{Kind: "lossy", Loss: 0.08, DistanceLoss: 0.15},
		Duration:    40 * time.Second,
		Warmup:      10 * time.Second,
	}
	for k := 0; k < 3; k++ {
		at := time.Duration(12+8*k) * time.Second
		base.Phases = append(base.Phases,
			Phase{At: at, Action: FailFraction{Fraction: 0.15}},
			Phase{At: at + 4*time.Second, Action: RestoreAll{}},
		)
	}

	encode := func(workers int) []byte {
		sc := base
		sc.Workers = workers
		res := &Result{Scenario: sc.WithDefaults(), Seed: 7}
		for run := 0; run < 2; run++ {
			rr, err := Execute(context.Background(), sc, 7, run, nil)
			if err != nil {
				t.Fatalf("workers=%d run %d: %v", workers, run, err)
			}
			res.Runs = append(res.Runs, rr)
		}
		var buf bytes.Buffer
		if err := res.EncodeJSON(&buf); err != nil {
			t.Fatalf("workers=%d: encode: %v", workers, err)
		}
		return buf.Bytes()
	}

	serial := encode(1)
	parallel := encode(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("workers=1 and workers=8 encoded different documents")
	}
}
