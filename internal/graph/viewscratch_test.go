package graph

import (
	"math/rand"
	"slices"
	"testing"

	"qolsr/internal/metric"
)

// randomRows draws a centre's worth of link tables over sparse ids, some
// negative and some past 40: the centre's own row first, then some
// neighbours' rows in ascending id order. Rows disagree freely — a may list b
// at one weight while b lists a at another, or not at all — and a row may
// name ids no other row mentions.
func randomRows(rng *rand.Rand, nodes int) (center NodeID, ids []NodeID, rows []linkRow) {
	pool := rng.Perm(4 * nodes)[:nodes]
	slices.Sort(pool)
	for _, id := range pool {
		ids = append(ids, NodeID(3*id-7))
	}
	center = ids[rng.Intn(len(ids))]
	row := func(from NodeID, p float64) linkRow {
		r := linkRow{from: from}
		for _, id := range ids {
			if id != from && rng.Float64() < p {
				r.to = append(r.to, id)
				r.w = append(r.w, float64(1+rng.Intn(12)))
			}
		}
		return r
	}
	own := row(center, 0.4)
	rows = append(rows, own)
	for _, nb := range own.to {
		if rng.Float64() < 0.85 {
			rows = append(rows, row(nb, 0.35))
		}
	}
	return center, ids, rows
}

// referenceView assembles the rows the plain way: a pair map for
// first-writer-wins, NewWithIDs, AddEdge, NewLocalView.
func referenceView(t *testing.T, center NodeID, ids []NodeID, rows []linkRow, ch string) (*LocalView, []float64) {
	t.Helper()
	g, err := NewWithIDs(ids)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]NodeID]bool{}
	for _, r := range rows {
		for i, to := range r.to {
			pair := [2]NodeID{min(r.from, to), max(r.from, to)}
			if pair[0] == pair[1] || seen[pair] {
				continue
			}
			seen[pair] = true
			if err := g.SetWeight(ch, g.MustAddEdge(g.IndexOf(pair[0]), g.IndexOf(pair[1])), r.w[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	w, err := g.Weights(ch)
	if err != nil {
		w = nil // no edges at all
	}
	return NewLocalView(g, g.IndexOf(center)), w
}

// scratchView builds the view the way a protocol node does: the ids are
// numbered by an IDIndex whose window holds some of them, handed over
// unsorted and with repeats as a caller walking its tables would; each pair's
// first report is staged by index, the graph is laid out in l and its view
// taken from s.
func scratchView(l *Layout, s *ViewScratch, center NodeID, ids []NodeID, rows []linkRow, ch string) (*LocalView, []float64) {
	var ix IDIndex
	ix.Reset(40)
	for i := len(ids) - 1; i >= 0; i-- {
		ix.Note(ids[i])
	}
	for _, r := range rows {
		ix.Note(r.from)
		for _, to := range r.to {
			ix.Note(to)
		}
	}
	sealed := ix.Seal()
	var ends [][2]int32
	var w []float64
	seen := map[[2]int32]bool{}
	for _, r := range rows {
		for i, to := range r.to {
			a, b := ix.At(r.from), ix.At(to)
			pair := [2]int32{min(a, b), max(a, b)}
			if a == b || seen[pair] {
				continue
			}
			seen[pair] = true
			ends, w = append(ends, pair), append(w, r.w[i])
		}
	}
	g := l.Lay(sealed, ends, ch, w)
	return s.View(g, ix.At(center)), w
}

// viewSnapshot is everything a view determines, by NodeID, detached from the
// storage it was read from.
type viewSnapshot struct {
	ids    []NodeID
	center NodeID
	n1, n2 []NodeID
	roles  []Role
	edges  map[[2]NodeID]float64
	direct []float64
	fp     map[string][][]NodeID // metric name -> per node (in id order) fP members
	dist   map[string][]float64
}

func snapshot(t *testing.T, lv *LocalView, w []float64) viewSnapshot {
	t.Helper()
	g := lv.G
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := viewSnapshot{center: g.ID(lv.U), edges: map[[2]NodeID]float64{}, fp: map[string][][]NodeID{}, dist: map[string][]float64{}}
	idsOf := func(xs []int32) []NodeID {
		out := make([]NodeID, len(xs))
		for i, x := range xs {
			out[i] = g.ID(x)
		}
		return out
	}
	s.n1, s.n2 = idsOf(lv.N1), idsOf(lv.N2)
	for x := int32(0); int(x) < g.N(); x++ {
		s.ids = append(s.ids, g.ID(x))
		s.roles = append(s.roles, lv.Role(x))
		if g.IndexOf(g.ID(x)) != x {
			t.Fatalf("IndexOf(%d) = %d, want %d", g.ID(x), g.IndexOf(g.ID(x)), x)
		}
	}
	for e := 0; e < g.M(); e++ {
		a, b := g.EdgeEndpoints(e)
		s.edges[[2]NodeID{g.ID(a), g.ID(b)}] = w[e]
	}
	for i, n := range lv.N1 {
		if lv.N1Index(n) != int32(i) || lv.N2Index(n) != -1 {
			t.Fatalf("N1 node %d: N1Index %d, N2Index %d", n, lv.N1Index(n), lv.N2Index(n))
		}
		s.direct = append(s.direct, w[lv.DirectEdge(i)])
	}
	for i, n := range lv.N2 {
		if lv.N2Index(n) != int32(i) || lv.N1Index(n) != -1 {
			t.Fatalf("N2 node %d: N2Index %d, N1Index %d", n, lv.N2Index(n), lv.N1Index(n))
		}
	}
	for _, m := range []metric.Metric{metric.Delay(), metric.Bandwidth()} {
		fast, err := ComputeFirstHops(lv, m, w)
		if err != nil {
			t.Fatal(err)
		}
		sets := make([][]NodeID, g.N())
		for x := int32(0); int(x) < g.N(); x++ {
			fast.ForEach(x, func(i int32) { sets[x] = append(sets[x], g.ID(lv.N1[i])) })
		}
		s.fp[m.Name()] = sets
		s.dist[m.Name()] = slices.Clone(fast.Dist)
		ref := FirstHopsReference(lv, m, w)
		if !slices.Equal(fast.Dist, ref.Dist) {
			t.Fatalf("%s: Dist fast %v, reference %v", m.Name(), fast.Dist, ref.Dist)
		}
		for x := int32(0); int(x) < g.N(); x++ {
			if !slices.Equal(fast.set(x), ref.set(x)) {
				t.Fatalf("%s: fP(%d) fast %b, reference %b", m.Name(), g.ID(x), fast.set(x), ref.set(x))
			}
		}
	}
	return s
}

func (a viewSnapshot) diff(t *testing.T, b viewSnapshot) {
	t.Helper()
	eq := func(what string, ok bool) {
		if !ok {
			t.Fatalf("%s differ:\n scratch   %+v\n reference %+v", what, a, b)
		}
	}
	eq("ids", slices.Equal(a.ids, b.ids))
	eq("center", a.center == b.center)
	eq("N1", slices.Equal(a.n1, b.n1))
	eq("N2", slices.Equal(a.n2, b.n2))
	eq("roles", slices.Equal(a.roles, b.roles))
	eq("direct weights", slices.Equal(a.direct, b.direct))
	eq("edge count", len(a.edges) == len(b.edges))
	for k, w := range a.edges {
		bw, ok := b.edges[k]
		eq("edges", ok && w == bw)
	}
	for name, sets := range a.fp {
		eq(name+" dist", slices.Equal(a.dist[name], b.dist[name]))
		for x := range sets {
			eq(name+" first hops", slices.Equal(sets[x], b.fp[name][x]))
		}
	}
}

// A view taken from a ViewScratch on a graph laid out by IDIndex and Layout
// equals the reference construction on seeded random link tables, one
// Layout and one scratch serving every build.
func TestViewScratchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var l Layout
	var s ViewScratch
	for trial := 0; trial < 300; trial++ {
		center, ids, rows := randomRows(rng, 2+rng.Intn(40))
		ch := "delay"
		ref, rw := referenceView(t, center, ids, rows, ch)
		lv, w := scratchView(&l, &s, center, ids, rows, ch)
		if got, err := lv.G.Weights(ch); err != nil || (len(w) > 0 && &got[0] != &w[0]) {
			t.Fatalf("trial %d: channel %q is not the staged weights (%v)", trial, ch, err)
		}
		snapshot(t, lv, w).diff(t, snapshot(t, ref, rw))
	}
}
