package graph

import (
	"math/rand"
	"testing"

	"qolsr/internal/metric"
)

// randomWeighted builds a random connected-ish graph for scratch tests.
func randomWeighted(t *testing.T, n int, p float64, channel string, seed int64) (*Graph, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	// A spanning path keeps the graph connected (and guarantees the weight
	// channel exists); random chords create tie-break opportunities.
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if b != a+1 && rng.Float64() > p {
				continue
			}
			e := g.MustAddEdge(int32(a), int32(b))
			if err := g.SetWeight(channel, e, 1+rng.Float64()*9); err != nil {
				t.Fatal(err)
			}
		}
	}
	w, err := g.Weights(channel)
	if err != nil {
		t.Fatal(err)
	}
	return g, w
}

// A Scratch reused across many searches — over graphs of different sizes and
// both metric kinds — must reproduce the one-shot Dijkstra bit for bit:
// distances, predecessors (via paths) and pop order.
func TestScratchDijkstraMatchesOneShot(t *testing.T) {
	for _, m := range []metric.Metric{metric.Bandwidth(), metric.Delay()} {
		var s Scratch
		for _, n := range []int{3, 17, 40, 9} { // shrinking sizes exercise buffer reuse
			g, w := randomWeighted(t, n, 0.2, m.Name(), int64(n)+7)
			for src := int32(0); int(src) < g.N(); src += 3 {
				want := Dijkstra(g, m, w, src, nil, -1)
				got := s.Dijkstra(g, m, w, src, nil, -1)
				for x := int32(0); int(x) < g.N(); x++ {
					if want.Reachable(x) != got.Reachable(x) {
						t.Fatalf("%s n=%d src=%d: reachability of %d differs", m.Name(), n, src, x)
					}
					if want.Dist[x] != got.Dist[x] {
						t.Fatalf("%s n=%d src=%d: dist[%d] = %v (scratch) vs %v", m.Name(), n, src, x, got.Dist[x], want.Dist[x])
					}
				}
				if len(want.Reached) != len(got.Reached) {
					t.Fatalf("%s n=%d src=%d: pop order lengths differ", m.Name(), n, src)
				}
				for i := range want.Reached {
					if want.Reached[i] != got.Reached[i] {
						t.Fatalf("%s n=%d src=%d: pop order differs at %d", m.Name(), n, src, i)
					}
				}
				for x := int32(0); int(x) < g.N(); x++ {
					wp, gp := want.PathTo(x), got.PathTo(x)
					if len(wp) != len(gp) {
						t.Fatalf("%s n=%d src=%d: path to %d differs in length", m.Name(), n, src, x)
					}
					for i := range wp {
						if wp[i] != gp[i] {
							t.Fatalf("%s n=%d src=%d: path to %d differs at hop %d", m.Name(), n, src, x, i)
						}
					}
				}
			}
		}
	}
}

// Shrinking the searched graph must not leak state from a larger earlier
// search: every returned buffer is cut to the new size, the pop order stays
// in range, and Reset releases the retained storage without affecting the
// correctness of later searches.
func TestScratchShrinkAndReset(t *testing.T) {
	m := metric.Delay()
	var s Scratch
	big, bw := randomWeighted(t, 120, 0.1, m.Name(), 11)
	s.Dijkstra(big, m, bw, 0, nil, -1)

	small, sw := randomWeighted(t, 7, 0.5, m.Name(), 13)
	got := s.Dijkstra(small, m, sw, 2, nil, -1)
	if len(got.Dist) != small.N() || len(got.prev) != small.N() || len(got.Second) != small.N() {
		t.Fatalf("buffer lengths (%d,%d,%d) not cut to n=%d after shrink",
			len(got.Dist), len(got.prev), len(got.Second), small.N())
	}
	for _, x := range got.Reached {
		if int(x) >= small.N() {
			t.Fatalf("pop order contains %d, outside the %d-node graph", x, small.N())
		}
	}
	want := Dijkstra(small, m, sw, 2, nil, -1)
	for x := int32(0); int(x) < small.N(); x++ {
		if want.Dist[x] != got.Dist[x] {
			t.Fatalf("dist[%d] = %v after shrink, want %v", x, got.Dist[x], want.Dist[x])
		}
	}

	s.Reset()
	if s.sp.Dist != nil || s.sp.prev != nil || s.sp.Second != nil || s.sp.Reached != nil || s.done != nil || s.heap != nil {
		t.Fatal("Reset left retained buffers behind")
	}
	got = s.Dijkstra(small, m, sw, 2, nil, -1)
	for x := int32(0); int(x) < small.N(); x++ {
		if want.Dist[x] != got.Dist[x] {
			t.Fatalf("dist[%d] = %v after Reset, want %v", x, got.Dist[x], want.Dist[x])
		}
	}
}

// FirstHops must agree with per-destination PathTo extraction.
func TestFirstHopsMatchesPathTo(t *testing.T) {
	for _, m := range []metric.Metric{metric.Bandwidth(), metric.Delay()} {
		g, w := randomWeighted(t, 30, 0.15, m.Name(), 3)
		var first, hops []int32
		for src := int32(0); src < 30; src += 7 {
			sp := Dijkstra(g, m, w, src, nil, -1)
			first, hops = sp.FirstHops(first, hops)
			for x := int32(0); int(x) < g.N(); x++ {
				path := sp.PathTo(x)
				switch {
				case len(path) == 0: // unreached
					if first[x] != -1 {
						t.Fatalf("%s src=%d: unreached %d has first hop %d", m.Name(), src, x, first[x])
					}
				case len(path) == 1: // the source
					if first[x] != -1 || hops[x] != 0 {
						t.Fatalf("%s src=%d: source entry = (%d,%d)", m.Name(), src, first[x], hops[x])
					}
				default:
					if first[x] != path[1] {
						t.Fatalf("%s src=%d: first hop to %d = %d, want %d", m.Name(), src, x, first[x], path[1])
					}
					if int(hops[x]) != len(path)-1 {
						t.Fatalf("%s src=%d: hops to %d = %d, want %d", m.Name(), src, x, hops[x], len(path)-1)
					}
				}
			}
		}
	}
}
