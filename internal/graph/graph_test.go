package graph

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"qolsr/internal/geom"
	"qolsr/internal/metric"
)

func TestNewAssignsSequentialIDs(t *testing.T) {
	g := New(4)
	if g.N() != 4 || g.M() != 0 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	for i := int32(0); i < 4; i++ {
		if g.ID(i) != NodeID(i) {
			t.Errorf("ID(%d) = %d", i, g.ID(i))
		}
	}
}

// A unit-disk field laid out by FromEdges is the graph New, AddEdge and
// SetWeight build edge by edge: the same ids, sizes, edge endpoints, arc
// order and weights, and the same IndexOf answers in range, past the end and
// below zero, from a bounds check. The fields include a single node and an
// edgeless one.
func TestFromEdgesMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	field := geom.Field{Width: 400, Height: 400}
	for trial := 0; trial < 40; trial++ {
		n, radius := 2+rng.Intn(300), 30+rng.Float64()*120
		switch trial {
		case 0:
			n = 1
		case 1:
			n, radius = 20, 1e-9
		}
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64() * field.Width, Y: rng.Float64() * field.Height}
		}
		links, err := geom.Links(field, radius, pts)
		if err != nil {
			t.Fatal(err)
		}
		w := make([]float64, len(links))
		for e := range w {
			w[e] = float64(1 + rng.Intn(10))
		}
		want := New(n)
		for e, l := range links {
			if err := want.SetWeight("bandwidth", want.MustAddEdge(l[0], l[1]), w[e]); err != nil {
				t.Fatal(err)
			}
		}
		got := FromEdges(IndexIDs(n), slices.Clone(links), "bandwidth", slices.Clone(w))
		if !got.identity {
			t.Fatalf("trial %d: ids 0..n-1 not marked identity: IndexOf binary-searches", trial)
		}
		if trial == 1 && got.M() != 0 {
			t.Fatalf("trial 1: %d edges, want an edgeless field", got.M())
		}
		if got.N() != want.N() || got.M() != want.M() {
			t.Fatalf("trial %d: N, M = %d, %d, want %d, %d", trial, got.N(), got.M(), want.N(), want.M())
		}
		for x := int32(0); int(x) < n; x++ {
			if got.ID(x) != want.ID(x) || !slices.Equal(got.Arcs(x), want.Arcs(x)) {
				t.Fatalf("trial %d: node %d has id %d, arcs %v, want %d, %v", trial, x, got.ID(x), got.Arcs(x), want.ID(x), want.Arcs(x))
			}
		}
		for e := 0; e < got.M(); e++ {
			a, b := got.EdgeEndpoints(e)
			if wa, wb := want.EdgeEndpoints(e); a != wa || b != wb {
				t.Fatalf("trial %d: edge %d joins %d-%d, want %d-%d", trial, e, a, b, wa, wb)
			}
		}
		gw, err := got.Weights("bandwidth")
		if err != nil {
			t.Fatal(err)
		}
		ww, _ := want.Weights("bandwidth")
		if len(gw) != len(ww) || len(ww) > 0 && !slices.Equal(gw, ww) {
			t.Fatalf("trial %d: weights %v, want %v", trial, gw, ww)
		}
		for _, id := range []NodeID{0, NodeID(n / 2), NodeID(n - 1), NodeID(n), NodeID(n + 7), -1, -NodeID(n)} {
			if got.IndexOf(id) != want.IndexOf(id) {
				t.Fatalf("trial %d: IndexOf(%d) = %d, want %d", trial, id, got.IndexOf(id), want.IndexOf(id))
			}
		}
	}
}

func TestNewWithIDsRejectsDuplicates(t *testing.T) {
	if _, err := NewWithIDs([]NodeID{1, 2, 1}); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
	g, err := NewWithIDs([]NodeID{10, 20, 30})
	if err != nil {
		t.Fatalf("NewWithIDs: %v", err)
	}
	if g.ID(1) != 20 {
		t.Errorf("ID(1) = %d, want 20", g.ID(1))
	}
	if g.IndexOf(30) != 2 {
		t.Errorf("IndexOf(30) = %d, want 2", g.IndexOf(30))
	}
	if g.IndexOf(99) != -1 {
		t.Errorf("IndexOf(99) = %d, want -1", g.IndexOf(99))
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	if _, err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := g.AddEdge(0, 3); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if _, err := g.AddEdge(-1, 1); err == nil {
		t.Error("negative endpoint accepted")
	}
	if _, err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if _, err := g.AddEdge(1, 0); err == nil {
		t.Error("duplicate (reversed) edge accepted")
	}
}

func TestEdgeBetweenAndEndpoints(t *testing.T) {
	g := New(4)
	e01 := g.MustAddEdge(0, 1)
	e23 := g.MustAddEdge(2, 3)
	if e, ok := g.EdgeBetween(1, 0); !ok || e != e01 {
		t.Errorf("EdgeBetween(1,0) = %d,%v", e, ok)
	}
	if _, ok := g.EdgeBetween(0, 2); ok {
		t.Error("phantom edge found")
	}
	a, b := g.EdgeEndpoints(e23)
	if a != 2 || b != 3 {
		t.Errorf("EdgeEndpoints = (%d,%d)", a, b)
	}
	if g.Degree(0) != 1 || g.Degree(3) != 1 {
		t.Error("degrees wrong")
	}
}

func TestWeightsChannelLifecycle(t *testing.T) {
	g := New(3)
	e0 := g.MustAddEdge(0, 1)
	if err := g.SetWeight("bandwidth", e0, 5); err != nil {
		t.Fatalf("SetWeight: %v", err)
	}
	// Channel must grow when edges are added after creation.
	e1 := g.MustAddEdge(1, 2)
	if err := g.SetWeight("bandwidth", e1, 7); err != nil {
		t.Fatalf("SetWeight after growth: %v", err)
	}
	ws, err := g.Weights("bandwidth")
	if err != nil {
		t.Fatalf("Weights: %v", err)
	}
	if ws[e0] != 5 || ws[e1] != 7 {
		t.Errorf("weights = %v", ws)
	}
	if _, err := g.Weights("nope"); err == nil {
		t.Error("unknown channel accepted")
	}
	if err := g.SetWeight("bandwidth", 99, 1); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func TestAssignUniformWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnectedGraph(rng, 20, 0.3)
	iv := metric.Interval{Lo: 2, Hi: 4}
	if err := g.AssignUniformWeights("x", iv, rng); err != nil {
		t.Fatalf("AssignUniformWeights: %v", err)
	}
	ws, err := g.Weights("x")
	if err != nil {
		t.Fatalf("Weights: %v", err)
	}
	for e, w := range ws {
		if !iv.Contains(w) {
			t.Fatalf("edge %d weight %v outside %v", e, w, iv)
		}
	}
	if err := g.AssignUniformWeights("x", metric.Interval{Lo: 0, Hi: 1}, rng); err == nil {
		t.Error("invalid interval accepted")
	}
}

func TestLinkWeightMap(t *testing.T) {
	g := New(3)
	e0 := g.MustAddEdge(0, 1)
	e1 := g.MustAddEdge(0, 2)
	if err := g.SetWeight("delay", e0, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := g.SetWeight("delay", e1, 2.5); err != nil {
		t.Fatal(err)
	}
	m, err := g.LinkWeightMap("delay", 0)
	if err != nil {
		t.Fatalf("LinkWeightMap: %v", err)
	}
	if len(m) != 2 || m[1] != 1.5 || m[2] != 2.5 {
		t.Errorf("map = %v", m)
	}
	if _, err := g.LinkWeightMap("missing", 0); err == nil {
		t.Error("unknown channel accepted")
	}
}

func TestLabels(t *testing.T) {
	g := New(2)
	if g.Label(0) != "v0" {
		t.Errorf("default label = %q", g.Label(0))
	}
	g.SetLabel(0, "u")
	if g.Label(0) != "u" || g.Label(1) != "v1" {
		t.Errorf("labels = %q %q", g.Label(0), g.Label(1))
	}
}

func TestCloneIsDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomConnectedGraph(rng, 10, 0.4)
	g.SetLabel(0, "origin")
	c := g.Clone()
	if c.N() != g.N() || c.M() != g.M() {
		t.Fatalf("clone dims differ")
	}
	// Mutating the clone must not affect the original.
	wc, _ := c.Weights("bandwidth")
	orig, _ := g.Weights("bandwidth")
	before := orig[0]
	wc[0] = before + 100
	if orig[0] != before {
		t.Error("clone shares weight storage")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("original invalidated: %v", err)
	}
	if c.Label(0) != "origin" {
		t.Error("labels not cloned")
	}
	// The id lookup is cloned in every mode: identity, mapped and laid out.
	mapped, err := NewWithIDs([]NodeID{9, 4, 7})
	if err != nil {
		t.Fatal(err)
	}
	laid := FromEdges([]NodeID{2, 5, 8}, [][2]int32{{0, 2}}, "delay", []float64{1})
	mc, lc := mapped.Clone(), laid.Clone()
	if c.IndexOf(3) != 3 || mc.IndexOf(4) != 1 || mc.IndexOf(1) != -1 || lc.IndexOf(8) != 2 || lc.IndexOf(4) != -1 {
		t.Errorf("IndexOf after Clone: identity %d, mapped %d and %d, laid out %d and %d",
			c.IndexOf(3), mc.IndexOf(4), mc.IndexOf(1), lc.IndexOf(8), lc.IndexOf(4))
	}
	// A clone's edges are its own.
	if _, err := mc.AddEdge(0, 2); err != nil || mapped.M() != 0 {
		t.Errorf("AddEdge on a clone: %v, original has %d edges", err, mapped.M())
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	g.ends[0] = [2]int32{1, 2} // corrupt endpoint table
	if err := g.Validate(); err == nil {
		t.Error("corrupted graph accepted")
	}
}

func TestWriteDOT(t *testing.T) {
	g := New(3)
	g.SetLabel(0, "u")
	e0 := g.MustAddEdge(0, 1)
	e1 := g.MustAddEdge(1, 2)
	if err := g.SetWeight("bandwidth", e0, 4); err != nil {
		t.Fatal(err)
	}
	if err := g.SetWeight("bandwidth", e1, 2.5); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	err := WriteDOT(&sb, g, DOTOptions{
		Name:           "fig",
		WeightChannel:  "bandwidth",
		HighlightNodes: map[int32]bool{1: true},
		HighlightEdges: map[int32]bool{int32(e0): true},
		DimEdges:       map[int32]bool{int32(e1): true},
	})
	if err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		`graph "fig"`,
		`"u" -- "v1" [label="4", style=bold, penwidth=2];`,
		`"v1" -- "v2" [label="2.5", style=dashed];`,
		`"v1" [style=filled, fillcolor=lightblue];`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	if err := WriteDOT(&sb, g, DOTOptions{WeightChannel: "zzz"}); err == nil {
		t.Error("unknown weight channel accepted")
	}
}

func TestUnionFind(t *testing.T) {
	var uf UnionFind
	uf.Reset(5)
	if uf.Find(0) == uf.Find(1) {
		t.Error("fresh sets connected")
	}
	for _, p := range [][2]int32{{0, 1}, {1, 2}} {
		root, absorbed := uf.Union(p[0], p[1])
		if absorbed < 0 || root == absorbed || uf.Find(p[0]) != root || uf.Find(p[1]) != root {
			t.Errorf("Union%v = (%d, %d)", p, root, absorbed)
		}
	}
	if root, absorbed := uf.Union(0, 2); absorbed != -1 || root != uf.Find(0) {
		t.Errorf("redundant Union = (%d, %d), want the shared root and -1", root, absorbed)
	}
	if uf.Find(0) != uf.Find(2) || uf.Find(0) == uf.Find(3) {
		t.Error("connectivity wrong")
	}
	uf.Reset(3)
	if uf.Find(0) == uf.Find(1) {
		t.Error("Reset did not clear sets")
	}
}

// LinkWeightMap returns the weights of the edges incident to x keyed by
// neighbor index; it is the per-neighbor view a HELLO message advertises.
func (g *Graph) LinkWeightMap(channel string, x int32) (map[int32]float64, error) {
	ws, err := g.Weights(channel)
	if err != nil {
		return nil, err
	}
	out := make(map[int32]float64, g.Degree(x))
	for _, arc := range g.adj[x] {
		out[arc.To] = ws[arc.Edge]
	}
	return out, nil
}
