package main

import (
	"math"
	"sort"
)

// summary is one metric folded over the reps of a run: the median is the
// reported figure, min/max/n and the raw values let a reader re-derive it
// and let compare tell noise from change.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Raw    []float64 `json:"raw"`
}

func summarise(unit string, raw []float64) summary {
	s := summary{Unit: unit, N: len(raw), Raw: raw}
	if len(raw) == 0 {
		return s
	}
	s.Median = median(raw)
	s.Min, s.Max = raw[0], raw[0]
	for _, v := range raw[1:] {
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	return s
}

// median returns the middle value (mean of the two middle values for an
// even count) without reordering its argument; 0 for no values.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile returns the p-quantile (nearest rank) of an ascending slice.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// percentileLadder is the set of tail percentiles a latency sample may be
// reported at, ascending.
var percentileLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// highestPercentile picks the highest rung of the ladder that still has at
// least ten samples beyond it — a tail read off fewer is one outlier's
// story. ok is false when even the median lacks that support.
func highestPercentile(n int) (p float64, ok bool) {
	for _, c := range percentileLadder {
		// The tolerance absorbs the rounding of 1-c (100 × (1 − 0.9) is a
		// hair under 10).
		if float64(n)*(1-c) >= 10-1e-9 {
			p, ok = c, true
		}
	}
	return p, ok
}
