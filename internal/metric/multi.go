package metric

// LexCost is a two-level lexicographic cost: Primary decides, Secondary
// breaks ties.
type LexCost struct {
	Primary   float64
	Secondary float64
}

// Lexicographic combines two float64 metrics lexicographically: primary
// decides, and exact primary ties fall through to secondary. This realises
// the paper's future-work multi-criterion selection (Sec. V: "minimizing
// energy-consumption while providing good bandwidth"), e.g. maximise
// bandwidth and, among equally wide paths, minimise energy.
type Lexicographic struct {
	// PrimaryMetric and SecondaryMetric define composition and comparison
	// per level.
	PrimaryMetric, SecondaryMetric Metric
	// PrimaryWeight and SecondaryWeight name the link-weight channels the
	// two levels read (e.g. "bandwidth", "energy").
	PrimaryWeight, SecondaryWeight string
}

// Combine extends a path of cost pathCost by one link of cost linkCost, each
// level through its own metric.
func (l Lexicographic) Combine(pathCost, linkCost LexCost) LexCost {
	return LexCost{
		Primary:   l.PrimaryMetric.Combine(pathCost.Primary, linkCost.Primary),
		Secondary: l.SecondaryMetric.Combine(pathCost.Secondary, linkCost.Secondary),
	}
}

// Better reports whether cost a is strictly better than b: a better primary,
// or an equal primary and a better secondary.
func (l Lexicographic) Better(a, b LexCost) bool {
	if l.PrimaryMetric.Better(a.Primary, b.Primary) {
		return true
	}
	if l.PrimaryMetric.Better(b.Primary, a.Primary) {
		return false
	}
	return l.SecondaryMetric.Better(a.Secondary, b.Secondary)
}
