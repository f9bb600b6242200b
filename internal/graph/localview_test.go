package graph

import (
	"math/rand"
	"testing"

	"qolsr/internal/metric"
)

func TestLocalViewSmall(t *testing.T) {
	// u(0) - a(1) - b(2) - c(3): N(u)={a}, N2(u)={b}, c outside.
	g := New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	lv := NewLocalView(g, 0)
	if len(lv.N1) != 1 || lv.N1[0] != 1 {
		t.Fatalf("N1 = %v", lv.N1)
	}
	if len(lv.N2) != 1 || lv.N2[0] != 2 {
		t.Fatalf("N2 = %v", lv.N2)
	}
	if lv.Role(0) != RoleCenter || lv.Role(1) != RoleOneHop || lv.Role(2) != RoleTwoHop || lv.Role(3) != RoleOutside {
		t.Error("roles wrong")
	}
	if !lv.InView(2) || lv.InView(3) {
		t.Error("InView wrong")
	}
	if lv.N1Index(1) != 0 || lv.N1Index(2) != -1 {
		t.Error("N1Index wrong")
	}
	// Edge b-c is invisible: it touches no 1-hop neighbor.
	if lv.HasViewEdge(2, 3) {
		t.Error("edge (b,c) must be outside E_u")
	}
	if !lv.HasViewEdge(1, 2) || !lv.HasViewEdge(0, 1) {
		t.Error("edges of E_u missing")
	}
	targets := lv.Targets()
	if len(targets) != 2 || targets[0] != 1 || targets[1] != 2 {
		t.Errorf("Targets = %v", targets)
	}
}

// The defining property of E_u (paper Fig. 2): links between two 2-hop
// neighbors are invisible to u.
func TestLocalViewHidesTwoHopToTwoHopLinks(t *testing.T) {
	// u-a, u-b, a-x, b-y, x-y: x,y are both 2-hop; link x-y invisible.
	g := New(5)
	g.MustAddEdge(0, 1) // u-a
	g.MustAddEdge(0, 2) // u-b
	g.MustAddEdge(1, 3) // a-x
	g.MustAddEdge(2, 4) // b-y
	g.MustAddEdge(3, 4) // x-y
	lv := NewLocalView(g, 0)
	if lv.HasViewEdge(3, 4) {
		t.Error("2-hop to 2-hop link visible in E_u")
	}
	edges := lv.ViewEdges(nil)
	if len(edges) != 4 {
		t.Errorf("|E_u| = %d, want 4", len(edges))
	}
}

func TestLocalViewSortingByID(t *testing.T) {
	// IDs are reversed relative to indices; N1/N2 must sort by ID.
	g, err := NewWithIDs([]NodeID{50, 40, 30, 20, 10})
	if err != nil {
		t.Fatal(err)
	}
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(1, 3)
	g.MustAddEdge(2, 4)
	lv := NewLocalView(g, 0)
	if g.ID(lv.N1[0]) != 30 || g.ID(lv.N1[1]) != 40 {
		t.Errorf("N1 IDs = %d,%d, want ascending", g.ID(lv.N1[0]), g.ID(lv.N1[1]))
	}
	if g.ID(lv.N2[0]) != 10 || g.ID(lv.N2[1]) != 20 {
		t.Errorf("N2 IDs = %d,%d, want ascending", g.ID(lv.N2[0]), g.ID(lv.N2[1]))
	}
}

func TestLocalViewMatchesBruteForceOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 30, 0.12)
		u := int32(rng.Intn(30))
		lv := NewLocalView(g, u)
		hops := Dijkstra(g, metric.Hop(), make([]float64, g.M()), u, nil, -1).Dist
		for x := int32(0); int(x) < g.N(); x++ {
			var want Role
			switch {
			case x == u:
				want = RoleCenter
			case hops[x] == 1:
				want = RoleOneHop
			case hops[x] == 2:
				want = RoleTwoHop
			default:
				want = RoleOutside
			}
			if lv.Role(x) != want {
				t.Fatalf("trial %d: role of %d = %v, want %v", trial, x, lv.Role(x), want)
			}
		}
		// E_u: exactly the edges with at least one 1-hop endpoint and
		// both endpoints in the view.
		viewEdges := map[int32]bool{}
		for _, e := range lv.ViewEdges(nil) {
			if viewEdges[e] {
				t.Fatalf("trial %d: edge %d emitted twice", trial, e)
			}
			viewEdges[e] = true
		}
		for e := 0; e < g.M(); e++ {
			a, b := g.EdgeEndpoints(e)
			want := lv.InView(a) && lv.InView(b) && (hops[a] == 1 || hops[b] == 1)
			if viewEdges[int32(e)] != want {
				t.Fatalf("trial %d: edge %d (%d-%d) membership = %v, want %v",
					trial, e, a, b, viewEdges[int32(e)], want)
			}
			if lv.HasViewEdge(a, b) != want {
				t.Fatalf("trial %d: HasViewEdge(%d,%d) = %v, want %v",
					trial, a, b, lv.HasViewEdge(a, b), want)
			}
		}
	}
}
