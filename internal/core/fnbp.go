package core

import (
	"fmt"

	"qolsr/internal/graph"
	"qolsr/internal/metric"
)

// FNBP is the paper's contribution: "first node on best path" QANS
// selection (Algorithms 1 and 2, unified over additive and concave metrics).
//
// For every 1-hop and 2-hop neighbor v, the center u computes the set
// fP(u,v) of first hops of QoS-optimal paths inside its local view G_u and
// advertises a small set of first hops that covers every target:
//
//   - step 1 (1-hop targets): nothing is selected when the direct link is
//     itself optimal (v ∈ fP(u,v)) or when an already-selected neighbor
//     starts an optimal path; otherwise the ≺-best member of fP(u,v) is
//     added.
//   - step 2 (2-hop targets): the ≺-best member of fP(u,v) is added unless
//     one is already selected. When one is already selected but u's
//     identifier is smaller than every member of fP(u,v), the "last limiting
//     link" rule (paper Fig. 4) additionally selects the ≺-best member that
//     is a direct neighbor of v, so that v keeps an advertised access link
//     and mutual-selection loops cannot isolate it.
//
// The zero value is the paper's algorithm. The rules live in one body,
// selectFNBP, whatever computed the first-hop sets: the fast kernels here,
// the lexicographic search in SelectFNBPLex, the definition-level oracle in
// tests.
type FNBP struct {
	// LoopFix selects the Fig. 4 rule variant; the zero value is the
	// paper's pseudocode (LoopFixLiteral).
	LoopFix LoopFixMode
}

// LoopFixMode selects how the step-2 else branch (paper Algorithm 1 lines
// 11–15) handles covered 2-hop targets when the center has the smallest
// identifier among the optimal first hops.
type LoopFixMode int

const (
	// LoopFixLiteral follows the pseudocode: select max≺(fP(u,v)), the
	// first hop with the best direct link. This reading reproduces all
	// three of the paper's worked narratives (v10 and v11 in Fig. 2
	// choose v1 and v6 without growing the set; Fig. 4's node A selects
	// D). It is the default.
	LoopFixLiteral LoopFixMode = iota
	// LoopFixAdjacent follows the prose ("select a node w such that the
	// path uwv exists"): select the ≺-best member of fP(u,v) adjacent to
	// v. It repairs Fig. 4 for any weight assignment but also fires on
	// harmless cases like Fig. 2's v10, growing the set (ablation).
	LoopFixAdjacent
	// LoopFixOff disables the rule entirely (ablation A1), re-enabling
	// the Fig. 4 pathology.
	LoopFixOff
)

// Name implements Selector.
func (f FNBP) Name() string {
	switch f.LoopFix {
	case LoopFixAdjacent:
		return "fnbp-adjfix"
	case LoopFixOff:
		return "fnbp-nofix"
	default:
		return "fnbp"
	}
}

// Stats reports how each FNBP rule contributed to a selection.
type Stats struct {
	// Step1Selected counts neighbors added for 1-hop targets.
	Step1Selected int
	// Step1DirectOptimal counts 1-hop targets already served by their
	// direct link.
	Step1DirectOptimal int
	// Step2Selected counts neighbors added for 2-hop targets.
	Step2Selected int
	// Covered counts targets skipped because fP(u,v) already intersected
	// the ANS.
	Covered int
	// LoopFixSelected counts neighbors added by the Fig. 4 rule.
	LoopFixSelected int
}

// Selection is the full outcome of FNBP at one node.
type Selection struct {
	// ANS is the advertised neighbor set in ascending NodeID order.
	ANS []int32
	// Cover maps every reachable 1- and 2-hop target to the neighbor the
	// center forwards through for that target: the target itself when its
	// direct link is optimal, otherwise the ANS member serving it. This
	// is the paper's forwarding semantics, under which the Fig. 4 mutual
	// selection loop is observable (and repaired by the loop-fix rule,
	// which overrides the assignment with the selected access node).
	Cover map[int32]int32
	// Stats is the rule-level accounting.
	Stats Stats
}

// Select implements Selector.
func (f FNBP) Select(view *graph.LocalView, m metric.Metric, w []float64) ([]int32, error) {
	ans, _, err := f.run(view, m, w, nil)
	return ans, err
}

// SelectFull runs the selection and returns the advertised set together with
// per-target forwarding assignments and statistics.
func (f FNBP) SelectFull(view *graph.LocalView, m metric.Metric, w []float64) (*Selection, error) {
	sel := &Selection{Cover: make(map[int32]int32, len(view.N1)+len(view.N2))}
	var err error
	sel.ANS, sel.Stats, err = f.run(view, m, w, sel.Cover)
	if err != nil {
		return nil, err
	}
	return sel, nil
}

// run feeds the fast first hops and m's order on the direct links to the
// selection body.
func (f FNBP) run(view *graph.LocalView, m metric.Metric, w []float64, cover map[int32]int32) ([]int32, Stats, error) {
	fh, err := graph.ComputeFirstHops(view, m, w)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("core: fnbp: %w", err)
	}
	ans, stats := selectFNBP(view, fh, directBetter(m, fh), f.LoopFix, cover)
	return ans, stats, nil
}

// directBetter is ≺'s strict part under a scalar metric: the direct link at
// N1 position i is better than the one at j.
func directBetter(m metric.Metric, fh *graph.FirstHops) func(i, j int32) bool {
	return func(i, j int32) bool { return m.Better(fh.DirectWeight[i], fh.DirectWeight[j]) }
}

// selectFNBP is the selection itself, steps 1 and 2 and the Fig. 4 rule,
// over the first-hop sets fh. better is ≺'s strict part over N1 positions
// (a better direct link; the smaller position, hence identifier, wins ties).
// The forwarding assignments go into cover when it is non-nil; apart from
// that map's entries the only allocation is the returned set.
func selectFNBP(view *graph.LocalView, fh *graph.FirstHops, better func(i, j int32) bool, loopFix LoopFixMode, cover map[int32]int32) ([]int32, Stats) {
	var stats Stats
	g := view.G
	assign := func(v, via int32) {
		if cover != nil {
			cover[v] = via
		}
	}

	// The ANS as a bitset over N1 positions (on the stack up to 256
	// neighbors).
	var small [4]uint64
	ansBits := small[:]
	if blocks := (len(view.N1) + 63) / 64; blocks > len(small) {
		ansBits = make([]uint64, blocks)
	}
	add := func(pos int32) { ansBits[pos/64] |= 1 << (uint(pos) % 64) }
	inANS := func(pos int32) bool {
		return ansBits[pos/64]&(1<<(uint(pos)%64)) != 0
	}
	// coveredBy returns the ≺-best already-selected member of fP(u,v),
	// or -1.
	coveredBy := func(v int32) int32 {
		return bestMember(fh, better, v, inANS)
	}

	// Step 1: 1-hop targets in ascending ID order.
	for i, v := range view.N1 {
		if fh.Contains(v, int32(i)) {
			// Direct link already optimal: no ANS needed for v.
			assign(v, v)
			stats.Step1DirectOptimal++
			continue
		}
		if by := coveredBy(v); by >= 0 {
			assign(v, view.N1[by])
			stats.Covered++
			continue
		}
		if best := bestMember(fh, better, v, nil); best >= 0 {
			add(best)
			assign(v, view.N1[best])
			stats.Step1Selected++
		}
	}

	// Step 2: 2-hop targets in ascending ID order.
	uID := g.ID(view.U)
	for _, v := range view.N2 {
		by := coveredBy(v)
		if by < 0 {
			if best := bestMember(fh, better, v, nil); best >= 0 {
				add(best)
				assign(v, view.N1[best])
				stats.Step2Selected++
			}
			continue
		}
		assign(v, view.N1[by])
		stats.Covered++
		if loopFix == LoopFixOff {
			continue
		}
		// Fig. 4 rule: when u's ID is smaller than every first hop's ID,
		// u is the responsible party for keeping v served; it selects the
		// ≺-best first hop (literal pseudocode) or the ≺-best first hop
		// adjacent to v (prose variant) and forwards for v through it, so
		// the forwarding assignment cannot ping-pong between peers when
		// the last link into v is the limiting one.
		smallest := true
		fh.ForEach(v, func(pos int32) {
			if g.ID(view.N1[pos]) < uID {
				smallest = false
			}
		})
		if !smallest {
			continue
		}
		var filter func(pos int32) bool
		if loopFix == LoopFixAdjacent {
			filter = func(pos int32) bool {
				_, ok := g.EdgeBetween(view.N1[pos], v)
				return ok
			}
		}
		if best := bestMember(fh, better, v, filter); best >= 0 {
			if !inANS(best) {
				add(best)
				stats.LoopFixSelected++
			}
			assign(v, view.N1[best])
		}
	}

	return selectedByID(view, inANS), stats
}
