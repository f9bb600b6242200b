package core

import (
	"qolsr/internal/graph"
	"qolsr/internal/metric"
)

// SelectFNBPLex runs FNBP under a lexicographic two-criterion cost, which is
// what the paper's future-work section calls for ("multi-criterion metrics
// ... minimizing energy-consumption while providing good bandwidth",
// Sec. V). The first-hop sets come from the definition under lex
// (graph.FirstHopsLex, the reference algorithm's complexity), and ≺ compares
// the direct links' costs with lex.Better; the selection is FNBP's own body.
func SelectFNBPLex(view *graph.LocalView, lex metric.Lexicographic, loopFix LoopFixMode) ([]int32, error) {
	wp, ws, err := graph.LexWeights(view.G, lex)
	if err != nil {
		return nil, err
	}
	direct := make([]metric.LexCost, len(view.N1))
	for i := range view.N1 {
		e := view.DirectEdge(i)
		direct[i] = metric.LexCost{Primary: wp[e], Secondary: ws[e]}
	}
	better := func(i, j int32) bool { return lex.Better(direct[i], direct[j]) }
	ans, _ := selectFNBP(view, graph.FirstHopsLex(view, lex, wp, ws), better, loopFix, nil)
	return ans, nil
}
