package core

import (
	"fmt"

	"qolsr/internal/graph"
	"qolsr/internal/metric"
)

// SelectFNBPSemiring runs FNBP under an arbitrary cost semiring, which is
// what the paper's future-work section calls for ("multi-criterion metrics
// ... minimizing energy-consumption while providing good bandwidth",
// Sec. V). It computes first-hop sets from the definition — one restricted
// search per 1-hop neighbor — so it works for any semiring at the price of
// the reference algorithm's complexity.
//
// Costs are compared with s.Better; two costs tie when neither is better.
// The ≺ ordering uses the direct link's cost, with smaller NodeID breaking
// ties, exactly like the scalar implementation.
func SelectFNBPSemiring[C metric.Cost](view *graph.LocalView, s metric.Semiring[C], loopFix LoopFixMode) ([]int32, error) {
	g := view.G

	ties := func(a, b C) bool { return !s.Better(a, b) && !s.Better(b, a) }

	// Direct link costs per N1 position.
	direct := make([]C, len(view.N1))
	channels := make(map[string][]float64)
	for _, ch := range g.Channels() {
		ws, err := g.Weights(ch)
		if err != nil {
			return nil, err
		}
		channels[ch] = ws
	}
	linkCost := func(e int) (C, error) {
		wmap := make(map[string]float64, len(channels))
		for ch, ws := range channels {
			wmap[ch] = ws[e]
		}
		return s.LinkCost(wmap)
	}
	for i, x := range view.N1 {
		e, ok := g.EdgeBetween(view.U, x)
		if !ok {
			return nil, fmt.Errorf("core: missing edge %d-%d", view.U, x)
		}
		c, err := linkCost(e)
		if err != nil {
			return nil, err
		}
		direct[i] = c
	}

	// Optimal costs from the center within the view.
	from, err := graph.DijkstraGeneric[C](g, s, view.U, view, -1)
	if err != nil {
		return nil, err
	}
	// First-hop sets from the definition: hop i ∈ fP(u,v) iff
	// combine(direct[i], cost_{G_u − u}(hop, v)) ties the optimum.
	fp := make(map[int32][]int32, len(view.N1)+len(view.N2)) // target -> N1 positions
	for i, hop := range view.N1 {
		sub, err := graph.DijkstraGeneric[C](g, s, hop, view, view.U)
		if err != nil {
			return nil, err
		}
		for _, v := range view.Targets() {
			if !from.Reached[v] || !sub.Reached[v] {
				continue
			}
			if ties(s.Combine(direct[i], sub.Cost[v]), from.Cost[v]) {
				fp[v] = append(fp[v], int32(i))
			}
		}
	}

	preferPos := func(i, j int32) bool {
		if s.Better(direct[i], direct[j]) {
			return true
		}
		if s.Better(direct[j], direct[i]) {
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
