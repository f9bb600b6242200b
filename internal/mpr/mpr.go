// Package mpr implements the multipoint-relay selection heuristics the paper
// builds on and compares against:
//
//   - Greedy: the original OLSR heuristic (RFC 3626, Qayyum et al.): cover
//     all 2-hop neighbors with few relays, ignoring link quality.
//   - QOLSR1: Badis & Agha's MPR-1 — greedy coverage with QoS tie-breaking.
//   - QOLSR2: Badis & Agha's MPR-2 — pick relays by link QoS alone until the
//     2-hop neighborhood is covered. This is the heuristic the paper's
//     "Original QOLSR" evaluation curve uses.
//
// All three share the mandatory first phase: a 1-hop neighbor that is the
// only cover of some 2-hop neighbor must be selected (the paper cites [3]:
// ~75% of MPRs are selected by this phase alone, which is why QoS-aware
// tie-breaking changes so little).
package mpr

import (
	"cmp"
	"fmt"
	"slices"

	"qolsr/internal/graph"
	"qolsr/internal/metric"
)

// Heuristic names an MPR selection rule.
type Heuristic int

// Available heuristics.
const (
	// Greedy is the RFC 3626 coverage heuristic (QoS-blind).
	Greedy Heuristic = iota + 1
	// QOLSR1 is MPR-1: max coverage first, QoS breaks ties.
	QOLSR1
	// QOLSR2 is MPR-2: best QoS link among useful candidates.
	QOLSR2
	// MinCover is the flooding-minimal relay set: the Greedy coverage
	// heuristic followed by the RFC 3626 §8.3.1 optional optimisation — a
	// pruning pass that drops every selected relay whose covered 2-hop
	// neighbors are all covered by other selected relays. It exists for the
	// two-relay-set model (Config.MinCoverRelays): QoS-driven selection is what
	// the paper wants advertised, but floods only need coverage, and the
	// smallest covering set is what bounds TC forwards in dense fields.
	MinCover
)

// String implements fmt.Stringer.
func (h Heuristic) String() string {
	switch h {
	case Greedy:
		return "olsr-greedy"
	case QOLSR1:
		return "qolsr-mpr1"
	case QOLSR2:
		return "qolsr-mpr2"
	case MinCover:
		return "min-cover"
	default:
		return fmt.Sprintf("Heuristic(%d)", int(h))
	}
}

// Select computes the MPR set of the view's center under the given
// heuristic. For QOLSR1/QOLSR2 the metric m and weight slice w drive the QoS
// comparisons; Greedy ignores them (they may be nil). The result lists
// global node indices of selected 1-hop neighbors in ascending NodeID order.
func Select(view *graph.LocalView, h Heuristic, m metric.Metric, w []float64) ([]int32, error) {
	if h < Greedy || h > MinCover {
		return nil, fmt.Errorf("mpr: unknown heuristic %v", h)
	}
	if h != Greedy && h != MinCover && (m == nil || w == nil) {
		return nil, fmt.Errorf("mpr: heuristic %v requires a metric and weights", h)
	}
	g := view.G
	n1, n2 := len(view.N1), len(view.N2)

	// Working storage, carved from one buffer the view supplies (so a
	// scratch-built view selects without allocating): for each N1 position
	// i the N2 positions it covers are covers[off[i]:off[i+1]]; for each N2
	// position how many N1 nodes cover it (coverCount) and whether a
	// selected one does (covered); per N1 position the selected flag; and
	// prune's two arrays.
	arcs := 0
	for _, n := range view.N1 {
		arcs += g.Degree(n)
	}
	buf := view.Int32Scratch(3*n1 + 1 + 3*n2 + arcs)
	carve := func(n int) []int32 {
		part := buf[:n:n]
		buf = buf[n:]
		return part
	}
	off, selected, order := carve(n1+1), carve(n1), carve(n1)
	coverCount, covered, selCover := carve(n2), carve(n2), carve(n2)
	covers := buf[:0]
	for i, n := range view.N1 {
		for _, arc := range g.Arcs(n) {
			if j := view.N2Index(arc.To); j >= 0 {
				covers = append(covers, j)
				coverCount[j]++
			}
		}
		off[i+1] = int32(len(covers))
	}
	coversOf := func(i int) []int32 { return covers[off[i]:off[i+1]] }

	remaining := n2
	selectIdx := func(i int) {
		if selected[i] != 0 {
			return
		}
		selected[i] = 1
		for _, j := range coversOf(i) {
			if covered[j] == 0 {
				covered[j] = 1
				remaining--
			}
		}
	}

	// Phase 1 (all heuristics): neighbors that are the only cover of some
	// 2-hop neighbor are mandatory.
	for i := range view.N1 {
		for _, j := range coversOf(i) {
			if coverCount[j] == 1 {
				selectIdx(i)
				break
			}
		}
	}

	// direct is the QoS heuristics' link weight from the center.
	direct := func(i int) float64 { return w[view.DirectEdge(i)] }

	newlyCovered := func(i int) int {
		c := 0
		for _, j := range coversOf(i) {
			if covered[j] == 0 {
				c++
			}
		}
		return c
	}

	// Phase 2: repeat until every 2-hop neighbor is covered.
	//
	// Greedy and MPR-1 only consider candidates that cover something new;
	// MPR-2, per its description ("does not consider the number of covered
	// 2-hop neighbors but the bandwidth or delay when choosing the next
	// node"), walks neighbors in pure QoS order until coverage is
	// reached, which is what makes the original QOLSR advertised set big
	// and density-growing in the paper's Figs. 6-7.
	for remaining > 0 {
		best := -1
		bestGain := 0
		for i := range view.N1 {
			if selected[i] != 0 {
				continue
			}
			gain := newlyCovered(i)
			if gain == 0 && h != QOLSR2 {
				continue
			}
			if best == -1 {
				best, bestGain = i, gain
				continue
			}
			switch h {
			case Greedy, MinCover:
				// Max gain; ties by higher degree, then smaller ID
				// (RFC 3626's reachability/degree tie-break).
				if gain > bestGain ||
					(gain == bestGain && g.Degree(view.N1[i]) > g.Degree(view.N1[best])) {
					best, bestGain = i, gain
				}
			case QOLSR1:
				// Max gain; ties by better QoS link, then smaller ID.
				if gain > bestGain ||
					(gain == bestGain && m.Better(direct(i), direct(best))) {
					best, bestGain = i, gain
				}
			case QOLSR2:
				// Best QoS link, ties by smaller ID (position order).
				if m.Better(direct(i), direct(best)) {
					best, bestGain = i, gain
				}
			}
		}
		if best == -1 {
			// Unreachable: every N2 node has a covering neighbor by
			// construction of the view.
			return nil, fmt.Errorf("mpr: %d two-hop neighbors uncoverable", remaining)
		}
		selectIdx(best)
	}

	if h == MinCover {
		prune(coversOf, selected, selCover, order)
	}

	// N1 is ID-sorted: collecting in position order is ascending NodeID.
	count := 0
	for _, sel := range selected {
		count += int(sel)
	}
	out := make([]int32, 0, count)
	for i, sel := range selected {
		if sel != 0 {
			out = append(out, view.N1[i])
		}
	}
	return out, nil
}

// prune drops redundant relays from a covering selection: a selected relay
// is removed when every 2-hop neighbor it covers is covered by at least one
// other selected relay (RFC 3626 §8.3.1's optional optimisation). Candidates
// are tried smallest coverage first (ties by ascending N1 position, which is
// ascending NodeID) — the relays a greedy pass selects early and later picks
// make redundant — so the order, and with it the result, is a pure function
// of the view. selCover (per N2 position, zeroed) and order (per N1 position)
// are working storage.
func prune(coversOf func(int) []int32, selected, selCover, order []int32) {
	order = order[:0]
	for i, sel := range selected {
		if sel == 0 {
			continue
		}
		order = append(order, int32(i))
		for _, j := range coversOf(i) {
			selCover[j]++
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(len(coversOf(int(a))), len(coversOf(int(b)))); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for _, i := range order {
		redundant := true
		for _, j := range coversOf(int(i)) {
			if selCover[j] < 2 {
				redundant = false
				break
			}
		}
		if !redundant {
			continue
		}
		selected[i] = 0
		for _, j := range coversOf(int(i)) {
			selCover[j]--
		}
	}
}

// VerifyCoverage reports whether every 2-hop neighbor of the view is
// adjacent to at least one member of set — the MPR correctness invariant.
func VerifyCoverage(view *graph.LocalView, set []int32) bool {
	g := view.G
	inSet := make(map[int32]bool, len(set))
	for _, x := range set {
		inSet[x] = true
	}
	for _, v := range view.N2 {
		ok := false
		for _, arc := range g.Arcs(v) {
			if inSet[arc.To] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
