package core

import (
	"qolsr/internal/graph"
	"qolsr/internal/metric"
)

// TopologyFilter is the QANS baseline of Moraru & Simplot-Ryl (paper Sec. II,
// [7]): the local view is first reduced with the relative-neighborhood-graph
// rule under the QoS weight, then, for every 1- and 2-hop neighbor, the node
// advertises the first hops of the best paths of at most two hops inside the
// reduced view.
//
// Two behaviours noted by the paper are reproduced faithfully:
//
//   - paths are limited to two hops, so QoS gains from longer detours are
//     unreachable;
//   - every first hop tied for the best value is advertised ("they will all
//     be selected as advertised neighbors"), which is what keeps this set
//     larger than FNBP's.
//
// Direct links that survive the reduction are advertised as well: they are
// the reduced topology a node exposes.
//
// This is the strict reading of [7]: both legs of a two-hop detour must
// survive the reduction, and targets with no reduced route within two hops
// are left to multi-hop routing over the advertised reduced topology (which
// the reduction provably keeps connected).
type TopologyFilter struct{}

// Name implements Selector.
func (tf TopologyFilter) Name() string { return "topofilter" }

// TFStats reports detail about one topology-filtering selection.
type TFStats struct {
	// SurvivingDirect counts direct links kept by the reduction.
	SurvivingDirect int
	// DetourSelected counts first hops advertised for two-hop detours.
	DetourSelected int
	// FallbackTargets counts targets unreachable within two hops of the
	// reduced view, left to multi-hop routing.
	FallbackTargets int
}

// Select implements Selector.
func (tf TopologyFilter) Select(view *graph.LocalView, m metric.Metric, w []float64) ([]int32, error) {
	ans, _, err := tf.SelectWithStats(view, m, w)
	return ans, err
}

// SelectWithStats is Select plus rule-level accounting. Its working storage
// comes from the view's scratch (see graph.ViewScratch).
func (tf TopologyFilter) SelectWithStats(view *graph.LocalView, m metric.Metric, w []float64) ([]int32, TFStats, error) {
	var stats TFStats
	keep := graph.ReduceRNG(view, m, w).Keep
	// By N1 position: selected is 1 once advertised, via 1 + the edge
	// joining that neighbor to the current target when it is a candidate.
	n1 := len(view.N1)
	buf := view.Int32Scratch(2 * n1)
	selected, via := buf[:n1], buf[n1:]
	// Direct links surviving the reduction are part of the advertised
	// reduced topology.
	for i := range view.N1 {
		if keep[view.DirectEdge(i)] {
			stats.SurvivingDirect++
			selected[i] = 1
		}
	}
	detour := func(i int, e int32) float64 {
		return m.Combine(m.Combine(m.Identity(), w[view.DirectEdge(i)]), w[e-1])
	}

	// For each target v, the candidate routes of at most two hops are the
	// surviving direct link, then the detours whose legs both survive, by
	// N1 position; the best value wins and every detour achieving it is
	// advertised unless the direct link is as good.
	for _, tier := range [2][]int32{view.N1, view.N2} {
		for _, v := range tier {
			var best, directVal float64
			have, direct := false, false
			if i := view.N1Index(v); i >= 0 && keep[view.DirectEdge(int(i))] {
				directVal = w[view.DirectEdge(int(i))]
				best, have, direct = directVal, true, true
			}
			for _, arc := range view.G.Arcs(v) {
				if i := view.N1Index(arc.To); i >= 0 && keep[view.DirectEdge(int(i))] && keep[arc.Edge] {
					via[i] = arc.Edge + 1
				}
			}
			for i, e := range via {
				if e != 0 {
					if val := detour(i, e); !have || m.Better(val, best) {
						best, have = val, true
					}
				}
			}
			if !have {
				stats.FallbackTargets++
				continue
			}
			for i, e := range via {
				if e == 0 {
					continue
				}
				via[i] = 0
				// The (advertised) direct link already serves v when
				// nothing beats it.
				if (!direct || m.Better(best, directVal)) && selected[i] == 0 && detour(i, e) == best {
					selected[i] = 1
					stats.DetourSelected++
				}
			}
		}
	}

	return selectedByID(view, func(pos int32) bool { return selected[pos] != 0 }), stats, nil
}
