package core

import (
	"fmt"

	"qolsr/internal/graph"
	"qolsr/internal/metric"
)

// SelectFNBPLex runs FNBP under a lexicographic two-criterion cost, which is
// what the paper's future-work section calls for ("multi-criterion metrics
// ... minimizing energy-consumption while providing good bandwidth",
// Sec. V). It computes first-hop sets from the definition — one restricted
// search per 1-hop neighbor — so it is the reference algorithm's
// complexity, and it stays independent of the first-hop kernels that FNBP
// uses.
//
// Costs are compared with lex.Better; two costs tie when neither is better.
// The ≺ ordering uses the direct link's cost, with smaller NodeID breaking
// ties, exactly like the scalar implementation.
func SelectFNBPLex(view *graph.LocalView, lex metric.Lexicographic, loopFix LoopFixMode) ([]int32, error) {
	g := view.G
	wp, ws, err := graph.LexWeights(g, lex)
	if err != nil {
		return nil, err
	}
	ties := func(a, b metric.LexCost) bool { return !lex.Better(a, b) && !lex.Better(b, a) }
	cost := func(sp *graph.ShortestPaths, v int32) metric.LexCost {
		return metric.LexCost{Primary: sp.Dist[v], Secondary: sp.Second[v]}
	}

	// Direct link costs per N1 position.
	direct := make([]metric.LexCost, len(view.N1))
	for i, x := range view.N1 {
		e, ok := g.EdgeBetween(view.U, x)
		if !ok {
			return nil, fmt.Errorf("core: missing edge %d-%d", view.U, x)
		}
		direct[i] = metric.LexCost{Primary: wp[e], Secondary: ws[e]}
	}

	// Optimal costs from the center within the view.
	var fromScratch, subScratch graph.Scratch
	from := fromScratch.DijkstraLex(g, lex, wp, ws, view.U, view, -1)
	// First-hop sets from the definition: hop i ∈ fP(u,v) iff
	// combine(direct[i], cost_{G_u − u}(hop, v)) ties the optimum.
	fp := make(map[int32][]int32, len(view.N1)+len(view.N2)) // target -> N1 positions
	for i, hop := range view.N1 {
		sub := subScratch.DijkstraLex(g, lex, wp, ws, hop, view, view.U)
		for _, v := range view.Targets() {
			if !from.Reachable(v) || !sub.Reachable(v) {
				continue
			}
			if ties(lex.Combine(direct[i], cost(sub, v)), cost(from, v)) {
				fp[v] = append(fp[v], int32(i))
			}
		}
	}

	preferPos := func(i, j int32) bool {
		if lex.Better(direct[i], direct[j]) {
			return true
		}
		if lex.Better(direct[j], direct[i]) {
			return false
		}
		return i < j
	}
	best := func(positions []int32, filter func(int32) bool) int32 {
		chosen := int32(-1)
		for _, p := range positions {
			if filter != nil && !filter(p) {
				continue
			}
			if chosen == -1 || preferPos(p, chosen) {
				chosen = p
			}
		}
		return chosen
	}

	selected := make([]bool, len(view.N1)) // by N1 position
	add := func(pos int32) { selected[pos] = true }
	covered := func(v int32) bool {
		for _, p := range fp[v] {
			if selected[p] {
				return true
			}
		}
		return false
	}

	for i, v := range view.N1 {
		if covered(v) {
			continue
		}
		self := false
		for _, p := range fp[v] {
			if p == int32(i) {
				self = true
			}
		}
		if self {
			continue
		}
		if b := best(fp[v], nil); b >= 0 {
			add(b)
		}
	}
	uID := g.ID(view.U)
	for _, v := range view.N2 {
		if !covered(v) {
			if b := best(fp[v], nil); b >= 0 {
				add(b)
			}
			continue
		}
		if loopFix == LoopFixOff {
			continue
		}
		smallest := true
		for _, p := range fp[v] {
			if g.ID(view.N1[p]) < uID {
				smallest = false
			}
		}
		if !smallest {
			continue
		}
		var filter func(p int32) bool
		if loopFix == LoopFixAdjacent {
			filter = func(p int32) bool {
				_, ok := g.EdgeBetween(view.N1[p], v)
				return ok
			}
		}
		if b := best(fp[v], filter); b >= 0 {
			add(b)
		}
	}

	return selectedByID(view, func(pos int32) bool { return selected[pos] }), nil
}
