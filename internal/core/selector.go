// Package core implements the paper's contribution — FNBP ("first node on
// best path" QANS selection, Algorithms 1 and 2) — together with the two
// advertised-set baselines it is evaluated against: the original QOLSR MPR
// heuristics used directly as the advertised set, and the
// relative-neighborhood-graph topology filtering of Moraru & Simplot-Ryl.
//
// All selectors answer the same question: given a node's two-hop local view
// and a QoS metric, which neighbors should the node advertise in its TC
// messages so that QoS-good routes survive in the advertised topology?
package core

import (
	"fmt"

	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/mpr"
)

// Selector computes a node's advertised neighbor set from its local view.
// Implementations must be stateless and safe for concurrent use.
type Selector interface {
	// Name returns a short identifier used in tables and benchmarks.
	Name() string
	// Select returns the advertised set of the view's center as global
	// node indices in ascending NodeID order. w is indexed by edge and
	// holds the metric's link values (typically g.Weights(m.Name())).
	Select(view *graph.LocalView, m metric.Metric, w []float64) ([]int32, error)
}

// bestMember returns the ≺-best N1 position of fP(u,v) satisfying the filter
// (nil filter accepts everything), or -1 when empty. This is the paper's
// max≺BW / min≺D applied to fP(u,v). ForEach visits positions in ascending
// order, so only a strictly better direct link displaces the choice and ties
// stay with the smaller identifier (N1 is sorted by ID).
func bestMember(fh *graph.FirstHops, better func(i, j int32) bool, v int32, filter func(pos int32) bool) int32 {
	best := int32(-1)
	fh.ForEach(v, func(pos int32) {
		if filter != nil && !filter(pos) {
			return
		}
		if best == -1 || better(pos, best) {
			best = pos
		}
	})
	return best
}

// selectedByID returns the 1-hop neighbors whose N1 position is selected, in
// ascending NodeID order — N1's own order, so no sort is needed — or nil when
// there is none. The result is the only allocation.
func selectedByID(view *graph.LocalView, selected func(pos int32) bool) []int32 {
	size := 0
	for i := range view.N1 {
		if selected(int32(i)) {
			size++
		}
	}
	if size == 0 {
		return nil
	}
	out := make([]int32, 0, size)
	for i, n := range view.N1 {
		if selected(int32(i)) {
			out = append(out, n)
		}
	}
	return out
}

// QOLSRAdapter reproduces the original QOLSR behaviour where the advertised
// set and the MPR set are the same thing: the advertised set is simply the
// MPR set computed by the configured heuristic (the paper's "Original QOLSR"
// curve uses MPR-2).
type QOLSRAdapter struct {
	Heuristic mpr.Heuristic
}

// Name implements Selector.
func (q QOLSRAdapter) Name() string {
	return "qolsr-" + q.Heuristic.String()
}

// Select implements Selector.
func (q QOLSRAdapter) Select(view *graph.LocalView, m metric.Metric, w []float64) ([]int32, error) {
	return mpr.Select(view, q.Heuristic, m, w)
}

// FullAdvertise advertises every 1-hop neighbor — the full link-state upper
// bound. It is not part of the paper's comparison but bounds the achievable
// QoS of any advertised-set scheme, which makes it a useful ablation
// reference.
type FullAdvertise struct{}

// Name implements Selector.
func (FullAdvertise) Name() string { return "full-linkstate" }

// Select implements Selector.
func (FullAdvertise) Select(view *graph.LocalView, _ metric.Metric, _ []float64) ([]int32, error) {
	out := append([]int32(nil), view.N1...)
	return out, nil
}

// Compile-time interface compliance checks.
var (
	_ Selector = QOLSRAdapter{}
	_ Selector = FullAdvertise{}
	_ Selector = FNBP{}
	_ Selector = TopologyFilter{}
)

// ByName returns a selector configured like the paper's three evaluation
// curves: "qolsr" (MPR-2 as advertised set), "topofilter", and "fnbp".
// "full" returns the link-state upper bound.
func ByName(name string) (Selector, error) {
	switch name {
	case "qolsr":
		return QOLSRAdapter{Heuristic: mpr.QOLSR2}, nil
	case "topofilter":
		return TopologyFilter{}, nil
	case "fnbp":
		return FNBP{}, nil
	case "full":
		return FullAdvertise{}, nil
	default:
		return nil, fmt.Errorf("core: unknown selector %q", name)
	}
}
