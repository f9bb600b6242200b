package route

import (
	"testing"

	"qolsr/internal/core"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/paperex"
)

// Delivers reports whether a packet from src can reach dst: following
// directed advertised hops from src until some visited node is a physical
// neighbor of dst (or dst itself).
func (d *DirectedAdvertised) Delivers(src, dst int32) bool {
	if src == dst {
		return true
	}
	return d.deliveredFrom(d.reachSet(src), dst)
}

func fig4Sets(t *testing.T, fix core.LoopFixMode) (*paperex.Fixture, [][]int32) {
	t.Helper()
	f := paperex.Figure4()
	w, err := f.G.Weights(paperex.Channel)
	if err != nil {
		t.Fatal(err)
	}
	sets := make([][]int32, f.G.N())
	for x := int32(0); int(x) < f.G.N(); x++ {
		view := graph.NewLocalView(f.G, x)
		sets[x], err = core.FNBP{LoopFix: fix}.Select(view, metric.Bandwidth(), w)
		if err != nil {
			t.Fatal(err)
		}
	}
	return f, sets
}

// The Fig. 4 statement measured end to end: without the rule E is
// unreachable from A, B and C under directed-advertisement semantics; with
// it, everyone reaches everyone.
func TestDirectedDeliveryFigure4(t *testing.T) {
	f, broken := fig4Sets(t, core.LoopFixOff)
	d, err := BuildDirectedAdvertised(f.G, broken)
	if err != nil {
		t.Fatal(err)
	}
	E := f.Node("E")
	for _, src := range []string{"A", "B", "C"} {
		if d.Delivers(f.Node(src), E) {
			t.Errorf("no-fix: %s->E delivered", src)
		}
	}
	if ratio := d.DeliveryRatio(); ratio == 1 {
		t.Error("no-fix: delivery ratio is 1, pathology invisible")
	}

	_, fixed := fig4Sets(t, core.LoopFixLiteral)
	df, err := BuildDirectedAdvertised(f.G, fixed)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"A", "B", "C", "D"} {
		if !df.Delivers(f.Node(src), E) {
			t.Errorf("fix: %s->E not delivered", src)
		}
	}
	if ratio := df.DeliveryRatio(); ratio != 1 {
		t.Errorf("fix: delivery ratio = %v, want 1", ratio)
	}
}

func TestDirectedDeliveryBasics(t *testing.T) {
	g := graph.New(3)
	mustAddEdge(g, 0, 1)
	mustAddEdge(g, 1, 2)
	// Only node 0 advertises its link to 1.
	d, err := BuildDirectedAdvertised(g, [][]int32{{1}, {}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Delivers(0, 0) {
		t.Error("self delivery failed")
	}
	if !d.Delivers(0, 1) {
		t.Error("direct neighbor delivery failed (local)")
	}
	// 0 -> 2: hop to 1 (advertised), then 2 is 1's physical neighbor.
	if !d.Delivers(0, 2) {
		t.Error("two-hop delivery via advertised hop + local last hop failed")
	}
	// 2 -> 0: nothing advertised from 2's side; 0 is not adjacent to 2.
	if d.Delivers(2, 0) {
		t.Error("unreachable pair delivered")
	}
	if _, err := BuildDirectedAdvertised(g, [][]int32{{2}, {}, {}}); err == nil {
		t.Error("non-neighbor advertisement accepted")
	}
	if _, err := BuildDirectedAdvertised(g, nil); err == nil {
		t.Error("set count mismatch accepted")
	}
}

func TestDeliveryRatioEmptyGraph(t *testing.T) {
	g := graph.New(2) // disconnected: no connected pairs at all
	d, err := BuildDirectedAdvertised(g, [][]int32{{}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.DeliveryRatio(); got != 1 {
		t.Errorf("vacuous delivery ratio = %v, want 1", got)
	}
}
