package graph

import (
	"math/rand"
	"testing"

	"qolsr/internal/metric"
)

// wideStar builds a hub with n direct neighbors (n > 64 exercises the
// multi-block bitsets) plus one 2-hop target behind every neighbor, bandwidth
// weights on `levels` integer levels.
func wideStar(n, levels int, rng *rand.Rand) *Graph {
	g := New(1 + 2*n)
	link := func(a, b int) {
		e := g.MustAddEdge(int32(a), int32(b))
		if err := g.SetWeight("bandwidth", e, float64(1+rng.Intn(levels))); err != nil {
			panic(err)
		}
	}
	for i := 1; i <= n; i++ {
		link(0, i)
		link(i, n+i)
	}
	// A few cross links among neighbors so indirect optimal paths exist.
	for i := 1; i < n; i += 3 {
		link(i, i+1)
	}
	return g
}

// With more than 64 one-hop neighbors the first-hop bitsets span multiple
// 64-bit blocks; the fast paths must agree with the reference there too.
func TestFirstHopsMultiBlockBitsets(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n = 90
	g := wideStar(n, 12, rng)
	lv := NewLocalView(g, 0)
	if len(lv.N1) != n {
		t.Fatalf("N1 = %d, want %d", len(lv.N1), n)
	}
	m := metric.Bandwidth()
	w := metricWeights(g, m)
	fast, err := ComputeFirstHops(lv, m, w)
	if err != nil {
		t.Fatal(err)
	}
	ref := FirstHopsReference(lv, m, w)
	for _, v := range lv.Targets() {
		for i := int32(0); int(i) < len(lv.N1); i++ {
			if fast.Contains(v, i) != ref.Contains(v, i) {
				t.Fatalf("target %d hop pos %d: fast=%v ref=%v",
					v, i, fast.Contains(v, i), ref.Contains(v, i))
			}
		}
		if fast.Count(v) != ref.Count(v) {
			t.Fatalf("target %d: Count fast=%d ref=%d", v, fast.Count(v), ref.Count(v))
		}
	}
	// ForEach must emit ascending positions and cover high blocks.
	sawHigh := false
	for _, v := range lv.Targets() {
		last := int32(-1)
		fast.ForEach(v, func(i int32) {
			if i <= last {
				t.Fatalf("ForEach order violated: %d after %d", i, last)
			}
			last = i
			if i >= 64 {
				sawHigh = true
			}
		})
	}
	if !sawHigh {
		t.Error("no first hop beyond position 64; test lost its point")
	}
}

// FNBP-style consumers walk fP with ForEach; on wide views (positions past
// the first 64-bit word) it must visit exactly Count members, ascending,
// each Contained.
func TestFirstHopsMembersWide(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	g := wideStar(70, 12, rng)
	lv := NewLocalView(g, 0)
	m := metric.Bandwidth()
	w := metricWeights(g, m)
	fh, err := ComputeFirstHops(lv, m, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range lv.Targets() {
		visited, prev := 0, int32(-1)
		fh.ForEach(v, func(i int32) {
			if i <= prev || !fh.Contains(v, i) {
				t.Fatalf("target %d: position %d after %d, Contained %v", v, i, prev, fh.Contains(v, i))
			}
			visited, prev = visited+1, i
		})
		if visited != fh.Count(v) {
			t.Fatalf("target %d: ForEach visited %d != Count %d", v, visited, fh.Count(v))
		}
	}
}
