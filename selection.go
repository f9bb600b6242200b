package qolsr

// Advertised-set selection: the paper's FNBP contribution, the baselines it
// is compared against, and the name registry scenarios are composed from.

import (
	"qolsr/internal/core"
	"qolsr/internal/mpr"
)

type (
	// Selector computes a node's advertised neighbor set.
	Selector = core.Selector
	// FNBP is the paper's contribution (zero value = paper algorithm).
	FNBP = core.FNBP
	// Selection is FNBP's full outcome (ANS + forwarding assignments).
	Selection = core.Selection
	// LoopFixMode selects the Fig. 4 rule variant.
	LoopFixMode = core.LoopFixMode
	// TopologyFilter is the RNG-filtering QANS baseline.
	TopologyFilter = core.TopologyFilter
	// QOLSRAdapter uses an MPR heuristic's set as the advertised set.
	QOLSRAdapter = core.QOLSRAdapter
	// FullAdvertise advertises every neighbor (link-state upper bound).
	FullAdvertise = core.FullAdvertise
	// MPRHeuristic names an MPR selection rule.
	MPRHeuristic = mpr.Heuristic
)

// Loop-fix variants (see core.LoopFixMode).
const (
	LoopFixLiteral  = core.LoopFixLiteral
	LoopFixAdjacent = core.LoopFixAdjacent
	LoopFixOff      = core.LoopFixOff
)

// MPR heuristics.
const (
	MPRGreedy = mpr.Greedy
	MPRQOLSR1 = mpr.QOLSR1
	MPRQOLSR2 = mpr.QOLSR2
)

var (
	// SelectorByName resolves "fnbp", "topofilter", "qolsr" or "full".
	SelectorByName = core.ByName
	// SelectMPR computes an MPR set for a view.
	SelectMPR = mpr.Select
	// VerifyMPRCoverage checks the 2-hop coverage invariant.
	VerifyMPRCoverage = mpr.VerifyCoverage
)

// SelectFNBPLex runs FNBP under a lexicographic two-criterion cost, the
// paper's future-work extension (Sec. V).
func SelectFNBPLex(view *LocalView, lex Lexicographic, loopFix LoopFixMode) ([]int32, error) {
	return core.SelectFNBPLex(view, lex, loopFix)
}
