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

// SelectWithStats is Select plus rule-level accounting.
func (tf TopologyFilter) SelectWithStats(view *graph.LocalView, m metric.Metric, w []float64) ([]int32, TFStats, error) {
	var stats TFStats
	g := view.G
	rv := graph.ReduceRNG(view, m, w)

	selected := make([]bool, len(view.N1)) // by N1 position
	// Direct links surviving the reduction are part of the advertised
	// reduced topology.
	directKeep := make([]bool, len(view.N1))
	for i := range view.N1 {
		directKeep[i] = rv.Keep[view.DirectEdge(i)]
		if directKeep[i] {
			stats.SurvivingDirect++
			selected[i] = true
		}
	}

	// twoHopBest collects, for target v, the best value over candidate
	// routes of at most two hops and every first hop achieving it.
	type candidate struct {
		val    float64
		direct bool
		pos    int32
	}
	for _, v := range view.Targets() {
		var cands []candidate
		if i := view.N1Index(v); i >= 0 && directKeep[i] {
			cands = append(cands, candidate{val: w[view.DirectEdge(int(i))], direct: true})
		}
		for i, x := range view.N1 {
			if x == v || !directKeep[i] {
				continue
			}
			eXV, ok := g.EdgeBetween(x, v)
			if !ok || !rv.Keep[int32(eXV)] {
				continue
			}
			val := m.Combine(m.Combine(m.Identity(), w[view.DirectEdge(i)]), w[eXV])
			cands = append(cands, candidate{val: val, pos: int32(i)})
		}
		if len(cands) == 0 {
			stats.FallbackTargets++
			continue
		}
		best := cands[0].val
		for _, c := range cands[1:] {
			if m.Better(c.val, best) {
				best = c.val
			}
		}
		directBest := false
		for _, c := range cands {
			if c.direct && !m.Better(best, c.val) {
				directBest = true
			}
		}
		if directBest {
			continue // the (advertised) direct link already serves v
		}
		for _, c := range cands {
			if !c.direct && c.val == best {
				if !selected[c.pos] {
					selected[c.pos] = true
					stats.DetourSelected++
				}
			}
		}
	}

	return selectedByID(view, func(pos int32) bool { return selected[pos] }), stats, nil
}
