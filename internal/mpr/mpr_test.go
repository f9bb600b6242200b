package mpr

import (
	"math/rand"
	"reflect"
	"testing"

	"qolsr/internal/graph"
	"qolsr/internal/metric"
)

// star builds u(0) with 1-hop neighbors 1..k and the provided 2-hop
// adjacency (neighbor -> list of 2-hop nodes, ids k+1..).
func star(t *testing.T, k int, twoHop map[int32][]int32, bw map[[2]int32]float64) *graph.Graph {
	t.Helper()
	maxNode := int32(k)
	for _, vs := range twoHop {
		for _, v := range vs {
			if v > maxNode {
				maxNode = v
			}
		}
	}
	g := graph.New(int(maxNode) + 1)
	addW := func(a, b int32) {
		e := mustAddEdge(g, a, b)
		w := 1.0
		if bw != nil {
			if v, ok := bw[[2]int32{a, b}]; ok {
				w = v
			}
		}
		if err := g.SetWeight("bandwidth", e, w); err != nil {
			t.Fatal(err)
		}
	}
	for i := int32(1); i <= int32(k); i++ {
		addW(0, i)
	}
	for n, vs := range twoHop {
		for _, v := range vs {
			addW(n, v)
		}
	}
	return g
}

func weights(t *testing.T, g *graph.Graph) []float64 {
	t.Helper()
	w, err := g.Weights("bandwidth")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPhase1MandatorySelection(t *testing.T) {
	// Neighbor 1 uniquely covers node 4; neighbors 2,3 both cover node 5.
	g := star(t, 3, map[int32][]int32{1: {4}, 2: {5}, 3: {5}}, nil)
	lv := graph.NewLocalView(g, 0)
	for _, h := range []Heuristic{Greedy, QOLSR1, QOLSR2} {
		set, err := Select(lv, h, metric.Bandwidth(), weights(t, g))
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		found := false
		for _, x := range set {
			if x == 1 {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: unique cover 1 not selected: %v", h, set)
		}
		if !VerifyCoverage(lv, set) {
			t.Errorf("%v: coverage violated", h)
		}
	}
}

func TestGreedyPrefersLargestGain(t *testing.T) {
	// Neighbor 1 covers {4,5,6}; neighbors 2 and 3 cover {4} and {5}.
	// Greedy should pick only neighbor 1.
	g := star(t, 3, map[int32][]int32{1: {4, 5, 6}, 2: {4}, 3: {5}}, nil)
	lv := graph.NewLocalView(g, 0)
	set, err := Select(lv, Greedy, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 || set[0] != 1 {
		t.Errorf("greedy set = %v, want [1]", set)
	}
}

func TestQOLSR2PicksBestLinkEvenWithSmallGain(t *testing.T) {
	// Neighbor 1 covers {4,5}, link bw 1. Neighbor 2 covers {4}, link bw
	// 9. Neighbor 3 covers {5}, link bw 8. No unique covers... node 4 is
	// covered by {1,2}, node 5 by {1,3}. MPR-2 picks by bandwidth: 2
	// first (bw 9), then 3 (bw 8). Greedy would pick just 1.
	bw := map[[2]int32]float64{{0, 1}: 1, {0, 2}: 9, {0, 3}: 8}
	g := star(t, 3, map[int32][]int32{1: {4, 5}, 2: {4}, 3: {5}}, bw)
	lv := graph.NewLocalView(g, 0)

	set2, err := Select(lv, QOLSR2, metric.Bandwidth(), weights(t, g))
	if err != nil {
		t.Fatal(err)
	}
	if len(set2) != 2 || set2[0] != 2 || set2[1] != 3 {
		t.Errorf("MPR-2 set = %v, want [2 3]", set2)
	}

	setG, err := Select(lv, Greedy, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(setG) != 1 || setG[0] != 1 {
		t.Errorf("greedy set = %v, want [1]", setG)
	}
}

func TestQOLSR1TieBreaksOnQoS(t *testing.T) {
	// Neighbors 1 and 2 both cover exactly {4}; neighbor 2 has the wider
	// link, so MPR-1 must choose 2.
	bw := map[[2]int32]float64{{0, 1}: 3, {0, 2}: 7}
	g := star(t, 2, map[int32][]int32{1: {4}, 2: {4}}, bw)
	lv := graph.NewLocalView(g, 0)
	set, err := Select(lv, QOLSR1, metric.Bandwidth(), weights(t, g))
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 || set[0] != 2 {
		t.Errorf("MPR-1 set = %v, want [2]", set)
	}
	// With delay (smaller better), neighbor 1 (delay 3) wins instead.
	d := metric.Delay()
	setD, err := Select(lv, QOLSR1, d, weights(t, g))
	if err != nil {
		t.Fatal(err)
	}
	if len(setD) != 1 || setD[0] != 1 {
		t.Errorf("MPR-1 delay set = %v, want [1]", setD)
	}
}

func TestSelectEmptyTwoHop(t *testing.T) {
	// No 2-hop neighborhood: the MPR set is empty for all heuristics.
	g := star(t, 3, nil, nil)
	lv := graph.NewLocalView(g, 0)
	for _, h := range []Heuristic{Greedy, QOLSR1, QOLSR2} {
		set, err := Select(lv, h, metric.Bandwidth(), weights(t, g))
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		if len(set) != 0 {
			t.Errorf("%v: set = %v, want empty", h, set)
		}
	}
}

func TestSelectRequiresMetricForQoS(t *testing.T) {
	g := star(t, 1, nil, nil)
	lv := graph.NewLocalView(g, 0)
	if _, err := Select(lv, QOLSR2, nil, nil); err == nil {
		t.Error("QOLSR2 without metric accepted")
	}
	// An unknown heuristic is rejected before any work, even on a view with
	// no two-hop neighbors to cover.
	for _, h := range []Heuristic{0, -1, MinCover + 1, 42} {
		if _, err := Select(lv, h, metric.Delay(), weights(t, g)); err == nil {
			t.Errorf("unknown heuristic %v accepted", h)
		}
	}
}

func TestHeuristicString(t *testing.T) {
	if Greedy.String() != "olsr-greedy" || QOLSR1.String() != "qolsr-mpr1" || QOLSR2.String() != "qolsr-mpr2" {
		t.Error("heuristic names wrong")
	}
	if Heuristic(9).String() != "Heuristic(9)" {
		t.Error("unknown heuristic name wrong")
	}
}

// Property: all heuristics produce covering sets on random geometric-ish
// graphs, and greedy is never larger than... (no such guarantee; just check
// coverage and determinism).
func TestCoverageInvariantRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 30; trial++ {
		g := graph.New(25)
		for a := int32(0); a < 25; a++ {
			for b := a + 1; b < 25; b++ {
				if rng.Float64() < 0.12 {
					e := mustAddEdge(g, a, b)
					if err := g.SetWeight("bandwidth", e, float64(1+rng.Intn(10))); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		u := int32(rng.Intn(25))
		lv := graph.NewLocalView(g, u)
		for _, h := range []Heuristic{Greedy, QOLSR1, QOLSR2} {
			set, err := Select(lv, h, metric.Bandwidth(), weights(t, g))
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, h, err)
			}
			if !VerifyCoverage(lv, set) {
				t.Fatalf("trial %d %v: coverage violated", trial, h)
			}
			// Deterministic: same inputs, same output.
			set2, err := Select(lv, h, metric.Bandwidth(), weights(t, g))
			if err != nil {
				t.Fatal(err)
			}
			if len(set) != len(set2) {
				t.Fatalf("trial %d %v: nondeterministic size", trial, h)
			}
			for i := range set {
				if set[i] != set2[i] {
					t.Fatalf("trial %d %v: nondeterministic member", trial, h)
				}
			}
		}
	}
}

// The paper (citing [3]) notes most MPRs come from the mandatory phase; as a
// sanity check, phase-1-only selection must be a subset of the final set.
func TestMandatoryPhaseSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 10; trial++ {
		g := graph.New(30)
		for a := int32(0); a < 30; a++ {
			for b := a + 1; b < 30; b++ {
				if rng.Float64() < 0.1 {
					e := mustAddEdge(g, a, b)
					if err := g.SetWeight("bandwidth", e, float64(1+rng.Intn(10))); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		u := int32(rng.Intn(30))
		lv := graph.NewLocalView(g, u)
		// Compute unique-cover neighbors directly.
		coverCount := map[int32]int{}
		coverer := map[int32]int32{}
		for _, n := range lv.N1 {
			for _, arc := range g.Arcs(n) {
				if lv.Role(arc.To) == graph.RoleTwoHop {
					coverCount[arc.To]++
					coverer[arc.To] = n
				}
			}
		}
		mandatory := map[int32]bool{}
		for v, c := range coverCount {
			if c == 1 {
				mandatory[coverer[v]] = true
			}
		}
		for _, h := range []Heuristic{Greedy, QOLSR1, QOLSR2} {
			set, err := Select(lv, h, metric.Bandwidth(), weights(t, g))
			if err != nil {
				t.Fatal(err)
			}
			inSet := map[int32]bool{}
			for _, x := range set {
				inSet[x] = true
			}
			for n := range mandatory {
				if !inSet[n] {
					t.Fatalf("trial %d %v: mandatory neighbor %d missing", trial, h, n)
				}
			}
		}
	}
}

func TestMinCoverPrunesRedundantRelay(t *testing.T) {
	// Greedy's tie-breaks pick neighbor 1 {6,7} first, then 2 (for 8) and
	// 3 (for 9) — which between them re-cover everything 1 covers.
	// Neighbors 4 and 5 only exist to keep 8 and 9 non-uniquely covered so
	// the mandatory phase stays empty.
	g := star(t, 5, map[int32][]int32{
		1: {6, 7}, 2: {6, 8}, 3: {7, 9}, 4: {8}, 5: {9},
	}, nil)
	lv := graph.NewLocalView(g, 0)
	greedy, err := Select(lv, Greedy, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{1, 2, 3}; !reflect.DeepEqual(greedy, want) {
		t.Fatalf("greedy = %v, want %v", greedy, want)
	}
	// MinCover needs neither metric nor weights.
	minc, err := Select(lv, MinCover, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{2, 3}; !reflect.DeepEqual(minc, want) {
		t.Fatalf("min-cover = %v, want %v", minc, want)
	}
	if !VerifyCoverage(lv, minc) {
		t.Error("pruned relay set lost coverage")
	}
}

func TestMinCoverCoverageInvariantRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(6)
		twoHop := map[int32][]int32{}
		seen := map[[2]int32]bool{}
		next := int32(k + 1)
		for i := int32(1); i <= int32(k); i++ {
			for j := 0; j < rng.Intn(4); j++ {
				v := next
				if rng.Intn(2) == 0 && next > int32(k+1) {
					// Re-cover an existing 2-hop node.
					v = int32(k+1) + rng.Int31n(next-int32(k+1))
				} else {
					next++
				}
				if seen[[2]int32{i, v}] {
					continue
				}
				seen[[2]int32{i, v}] = true
				twoHop[i] = append(twoHop[i], v)
			}
		}
		g := star(t, k, twoHop, nil)
		lv := graph.NewLocalView(g, 0)
		greedy, err := Select(lv, Greedy, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		minc, err := Select(lv, MinCover, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !VerifyCoverage(lv, minc) {
			t.Fatalf("trial %d: min-cover set %v loses coverage", trial, minc)
		}
		if len(minc) > len(greedy) {
			t.Fatalf("trial %d: min-cover %v bigger than greedy %v", trial, minc, greedy)
		}
	}
}

// mustAddEdge adds the edge a–b to a statically known-good fixture,
// panicking on an error.
func mustAddEdge(g *graph.Graph, a, b int32) int {
	e, err := g.AddEdge(a, b)
	if err != nil {
		panic(err)
	}
	return e
}
