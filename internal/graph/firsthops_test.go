package graph

import (
	"math"
	"math/rand"
	"testing"

	"qolsr/internal/metric"
)

// firstHopImplementations enumerates the three fP implementations so every
// test can cross-check them.
func firstHopImplementations(view *LocalView, m metric.Metric, w []float64, t *testing.T) map[string]*FirstHops {
	t.Helper()
	fast, err := ComputeFirstHops(view, m, w)
	if err != nil {
		t.Fatalf("ComputeFirstHops: %v", err)
	}
	ref := FirstHopsReference(view, m, w)
	return map[string]*FirstHops{"fast": fast, "reference": ref}
}

// firstHopsAre reports whether fP(u,v) is exactly the 1-hop neighbors want.
func firstHopsAre(fh *FirstHops, v int32, want ...int32) bool {
	if fh.Count(v) != len(want) {
		return false
	}
	for _, x := range want {
		if i := fh.View.N1Index(x); i < 0 || !fh.Contains(v, i) {
			return false
		}
	}
	return true
}

func TestFirstHopsDirectLinkOptimal(t *testing.T) {
	// u(0)-v(1) direct link 10, alternative u-w(2)-v of bottleneck 5:
	// fP(u,v) = {v} (direct optimal).
	g := New(3)
	type ew struct {
		a, b int32
		w    float64
	}
	for _, s := range []ew{{0, 1, 10}, {0, 2, 5}, {2, 1, 9}} {
		e := g.MustAddEdge(s.a, s.b)
		if err := g.SetWeight("bandwidth", e, s.w); err != nil {
			t.Fatal(err)
		}
	}
	lv := NewLocalView(g, 0)
	m := metric.Bandwidth()
	w := metricWeights(g, m)
	for name, fh := range firstHopImplementations(lv, m, w, t) {
		if !firstHopsAre(fh, 1, 1) {
			t.Errorf("%s: |fP(u,v)| = %d, want {v}", name, fh.Count(1))
		}
		if fh.Dist[1] != 10 {
			t.Errorf("%s: value = %v, want 10", name, fh.Dist[1])
		}
	}
}

func TestFirstHopsIndirectBetter(t *testing.T) {
	// Paper Fig. 2 situation for v4: direct link u-v4 = 3, path
	// u-v1-v5-v4 = 5: fP = {v1}.
	g := New(4) // 0=u 1=v1 2=v5 3=v4
	type ew struct {
		a, b int32
		w    float64
	}
	for _, s := range []ew{{0, 3, 3}, {0, 1, 5}, {1, 2, 5}, {2, 3, 5}} {
		e := g.MustAddEdge(s.a, s.b)
		if err := g.SetWeight("bandwidth", e, s.w); err != nil {
			t.Fatal(err)
		}
	}
	lv := NewLocalView(g, 0)
	m := metric.Bandwidth()
	w := metricWeights(g, m)
	for name, fh := range firstHopImplementations(lv, m, w, t) {
		if !firstHopsAre(fh, 3, 1) {
			t.Errorf("%s: |fP(u,v4)| = %d, want {v1}", name, fh.Count(3))
		}
		if fh.Dist[3] != 5 {
			t.Errorf("%s: B̃W(u,v4) = %v, want 5", name, fh.Dist[3])
		}
		// Direct link weight exposed for the ≺ ordering.
		if got := fh.DirectWeight[lv.N1Index(3)]; got != 3 {
			t.Errorf("%s: direct weight = %v, want 3", name, got)
		}
	}
}

func TestFirstHopsTiedPaths(t *testing.T) {
	// Paper Fig. 2: PBW(u,v3) = {u v2 v3, u v1 v3}, both of value 4 ->
	// fP = {v1, v2}.
	g := New(4) // 0=u 1=v1 2=v2 3=v3
	type ew struct {
		a, b int32
		w    float64
	}
	for _, s := range []ew{{0, 1, 5}, {0, 2, 5}, {1, 3, 4}, {2, 3, 4}} {
		e := g.MustAddEdge(s.a, s.b)
		if err := g.SetWeight("bandwidth", e, s.w); err != nil {
			t.Fatal(err)
		}
	}
	lv := NewLocalView(g, 0)
	m := metric.Bandwidth()
	w := metricWeights(g, m)
	for name, fh := range firstHopImplementations(lv, m, w, t) {
		if !firstHopsAre(fh, 3, 1, 2) {
			t.Errorf("%s: |fP(u,v3)| = %d, want {v1,v2}", name, fh.Count(3))
		}
	}
}

func TestFirstHopsDelayLine(t *testing.T) {
	// u(0)-a(1)-b(2), delays 1,1; plus direct u-b of delay 5:
	// fP(u,b) = {a}; fP(u,a) = {a}.
	g := New(3)
	type ew struct {
		a, b int32
		w    float64
	}
	for _, s := range []ew{{0, 1, 1}, {1, 2, 1}, {0, 2, 5}} {
		e := g.MustAddEdge(s.a, s.b)
		if err := g.SetWeight("delay", e, s.w); err != nil {
			t.Fatal(err)
		}
	}
	lv := NewLocalView(g, 0)
	m := metric.Delay()
	w := metricWeights(g, m)
	for name, fh := range firstHopImplementations(lv, m, w, t) {
		if !firstHopsAre(fh, 2, 1) {
			t.Errorf("%s: |fP(u,b)| = %d, want {a}", name, fh.Count(2))
		}
		if !firstHopsAre(fh, 1, 1) {
			t.Errorf("%s: |fP(u,a)| = %d, want {a}", name, fh.Count(1))
		}
		if fh.Dist[2] != 2 {
			t.Errorf("%s: D̃(u,b) = %v, want 2", name, fh.Dist[2])
		}
	}
}

// Paths through a 2-hop neighbor to another 2-hop neighbor are legal inside
// G_u as long as every edge touches a 1-hop neighbor.
func TestFirstHopsPathThroughTwoHopNode(t *testing.T) {
	// u(0)-a(1)-x(2)-b(3): wait, x-b is a 2hop-2hop edge... instead:
	// u-a, a-x, x-c? Use: u-a(1) w5, a-x(2) w5, u-b(3) w1, b-y(4) w1,
	// x-b w5 => y reachable as u-a-x-b-y? x-b touches b in N1: visible.
	type ew struct {
		a, b int32
		w    float64
	}
	g := New(5)
	for _, s := range []ew{{0, 1, 5}, {1, 2, 5}, {0, 3, 1}, {3, 4, 1}, {2, 3, 5}} {
		e := g.MustAddEdge(s.a, s.b)
		if err := g.SetWeight("bandwidth", e, s.w); err != nil {
			t.Fatal(err)
		}
	}
	lv := NewLocalView(g, 0)
	m := metric.Bandwidth()
	w := metricWeights(g, m)
	for name, fh := range firstHopImplementations(lv, m, w, t) {
		// Widest u->y: u-a-x-b-y bottleneck 1 vs u-b-y bottleneck 1:
		// tie at 1 (last link limits). Both a and b are first hops.
		if !firstHopsAre(fh, 4, 1, 3) {
			t.Errorf("%s: |fP(u,y)| = %d, want {a,b}", name, fh.Count(4))
		}
		// Widest u->b must be 5 through a,x.
		if fh.Dist[3] != 5 {
			t.Errorf("%s: B̃W(u,b) = %v, want 5", name, fh.Dist[3])
		}
		if !firstHopsAre(fh, 3, 1) {
			t.Errorf("%s: |fP(u,b)| = %d, want {a}", name, fh.Count(3))
		}
	}
}

func TestFirstHopsFastMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	metrics := []metric.Metric{metric.Delay(), metric.Bandwidth()}
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(10)
		g := randomConnectedGraph(rng, n, 0.25)
		u := int32(rng.Intn(n))
		lv := NewLocalView(g, u)
		for _, m := range metrics {
			w := metricWeights(g, m)
			fast, err := ComputeFirstHops(lv, m, w)
			if err != nil {
				t.Fatalf("ComputeFirstHops: %v", err)
			}
			ref := FirstHopsReference(lv, m, w)
			for _, v := range lv.Targets() {
				for i := int32(0); int(i) < len(lv.N1); i++ {
					if fast.Contains(v, i) != ref.Contains(v, i) {
						t.Fatalf("trial %d %s: fP(u=%d,v=%d) disagreement on hop %d: fast=%v ref=%v (|fast|=%d |ref|=%d)",
							trial, m.Name(), u, v, lv.N1[i],
							fast.Contains(v, i), ref.Contains(v, i),
							fast.Count(v), ref.Count(v))
					}
				}
			}
		}
	}
}

func TestFirstHopsFastMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	metrics := []metric.Metric{metric.Delay(), metric.Bandwidth()}
	for trial := 0; trial < 25; trial++ {
		n := 7 + rng.Intn(5)
		g := randomConnectedGraph(rng, n, 0.3)
		u := int32(rng.Intn(n))
		lv := NewLocalView(g, u)
		for _, m := range metrics {
			w := metricWeights(g, m)
			fast, err := ComputeFirstHops(lv, m, w)
			if err != nil {
				t.Fatalf("ComputeFirstHops: %v", err)
			}
			for _, v := range lv.Targets() {
				want := BruteFirstHops(lv, m, w, v)
				if fast.Count(v) != len(want) {
					t.Fatalf("trial %d %s: |fP(u=%d,v=%d)| = %d, brute = %v",
						trial, m.Name(), u, v, fast.Count(v), want)
				}
				fast.ForEach(v, func(i int32) {
					if !want[lv.N1[i]] {
						t.Fatalf("trial %d %s: spurious first hop %d for v=%d",
							trial, m.Name(), lv.N1[i], v)
					}
				})
			}
		}
	}
}

// v ∈ fP(u,v) iff the direct link is optimal (paper Sec. III-B) — verified
// structurally across random graphs.
func TestFirstHopsSelfMembershipIffDirectOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 20; trial++ {
		g := randomConnectedGraph(rng, 12, 0.3)
		u := int32(rng.Intn(12))
		lv := NewLocalView(g, u)
		for _, m := range []metric.Metric{metric.Delay(), metric.Bandwidth()} {
			w := metricWeights(g, m)
			fh, err := ComputeFirstHops(lv, m, w)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range lv.N1 {
				directOptimal := fh.DirectWeight[i] == fh.Dist[v]
				if fh.Contains(v, int32(i)) != directOptimal {
					t.Fatalf("%s: self-membership of %d = %v, direct-optimal = %v",
						m.Name(), v, fh.Contains(v, int32(i)), directOptimal)
				}
			}
		}
	}
}

func TestComputeFirstHopsRejectsUnknownKind(t *testing.T) {
	g := New(2)
	e := g.MustAddEdge(0, 1)
	if err := g.SetWeight("x", e, 1); err != nil {
		t.Fatal(err)
	}
	lv := NewLocalView(g, 0)
	w, _ := g.Weights("x")
	if _, err := ComputeFirstHops(lv, badKindMetric{}, w); err == nil {
		t.Error("unknown metric kind accepted")
	}
}

type badKindMetric struct{ metric.Metric }

func (badKindMetric) Kind() metric.Kind { return metric.Kind(99) }
func (badKindMetric) Name() string      { return "bad" }

// descKey orders weights best first: a > b exactly when descKey(a) <
// descKey(b), over negatives, both zeros, subnormals and both infinities. The
// two zeros compare equal as weights but keep distinct keys, +0 first, with
// nothing between them.
func TestDescKeyOrder(t *testing.T) {
	grid := []float64{math.Inf(-1), -math.MaxFloat64, -3, -1, -0x1p-1074, math.Copysign(0, -1), 0,
		0x1p-1074, 0x1p-1022, 1, 1 + 0x1p-52, 1 + 0x1p-50, 2, math.MaxFloat64, math.Inf(1)}
	for _, a := range grid {
		for _, b := range grid {
			if a == 0 && b == 0 {
				continue
			}
			if got, want := descKey(a) < descKey(b), a > b; got != want {
				t.Errorf("descKey(%v) < descKey(%v) = %v, want %v", a, b, got, want)
			}
		}
	}
	if pos, neg := descKey(0), descKey(math.Copysign(0, -1)); neg != pos+1 {
		t.Errorf("descKey(+0) = %#x, descKey(-0) = %#x: not adjacent", pos, neg)
	}
}
