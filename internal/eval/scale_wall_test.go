package eval

import (
	"context"
	"testing"
	"time"
)

// The 1000-node scale point must complete and deliver: with interned
// advertisements, the origin-major topology store and the linear-time
// routing-table rebuild it runs in ~2s of wall time on one modest core. The ceiling is deliberately
// loose (slow hardware, race-detector runs) — it catches an
// order-of-magnitude regression in the hot path, not jitter; CI's
// performance canary proper is the peak-RSS ceiling on cmd/qolsr-bench's
// scale-1500 workload.
func TestScaleWallCeiling1000(t *testing.T) {
	if testing.Short() {
		t.Skip("scale point too heavy for -short")
	}
	const ceiling = 90 * time.Second
	res, err := RunLiveGrid(context.Background(), "scale", ScaleAxis{Min: 1000, Max: 1000}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if wall := res.Sweeps[0].Cell(0, "", "wall_s").Mean(); wall > ceiling.Seconds() {
		t.Fatalf("1000-node point took %.1fs wall, ceiling %v", wall, ceiling)
	}
	if dlv := res.Sweeps[0].Cell(0, "", "dlv").Mean(); dlv < 0.95 {
		t.Fatalf("1000-node delivery %.3f, want >= 0.95", dlv)
	}
}
