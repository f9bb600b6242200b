package stats

import (
	"math"
	"sort"
)

// Quantile is a streaming quantile estimator using the P² algorithm (Jain &
// Chlamtac, CACM 1985): five markers track the target quantile and its
// neighborhood in O(1) memory and O(1) time per observation, with the marker
// heights adjusted by piecewise-parabolic interpolation. Below five
// observations the estimate is exact (computed from the stored samples).
//
// The estimator is deterministic — the same observation sequence always
// yields the same estimate — so per-flow delay percentiles stay bit-identical
// across harness worker counts. It is the repository's tool for delay
// p95/p99 accounting, where storing every packet latency would cost O(n)
// per flow.
type Quantile struct {
	p float64 // target quantile in (0, 1)

	n int        // observations seen
	q [5]float64 // marker heights
	m [5]float64 // marker positions (1-based, as in the paper)
	d [5]float64 // desired marker positions
}

// NewQuantile returns a streaming estimator of the p-quantile, p in (0, 1).
// It panics outside that range: a caller asking for the 0- or 1-quantile
// wants Min/Max from an Accumulator, not an interpolating estimator.
func NewQuantile(p float64) *Quantile {
	if !(p > 0 && p < 1) {
		panic("stats: quantile target must be in (0, 1)")
	}
	return &Quantile{p: p}
}

// P returns the target quantile.
func (q *Quantile) P() float64 { return q.p }

// N returns the number of observations.
func (q *Quantile) N() int { return q.n }

// Add records one observation.
func (q *Quantile) Add(x float64) {
	if q.n < 5 {
		q.q[q.n] = x
		q.n++
		if q.n == 5 {
			sort.Float64s(q.q[:])
			for i := range q.m {
				q.m[i] = float64(i + 1)
			}
			q.d[0] = 1
			q.d[1] = 1 + 2*q.p
			q.d[2] = 1 + 4*q.p
			q.d[3] = 3 + 2*q.p
			q.d[4] = 5
		}
		return
	}

	// Locate the cell containing x and update the extreme markers.
	var k int
	switch {
	case x < q.q[0]:
		q.q[0] = x
		k = 0
	case x >= q.q[4]:
		q.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < q.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		q.m[i]++
	}
	q.n++

	// Desired positions advance by their quantile-proportional increments.
	q.d[1] += q.p / 2
	q.d[2] += q.p
	q.d[3] += (1 + q.p) / 2
	q.d[4]++

	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		delta := q.d[i] - q.m[i]
		if (delta >= 1 && q.m[i+1]-q.m[i] > 1) || (delta <= -1 && q.m[i-1]-q.m[i] < -1) {
			sign := 1.0
			if delta < 0 {
				sign = -1
			}
			// A collapsed bracket (q[i-1] == q[i+1], common when samples
			// tie) admits no height strictly inside it, so the parabola is
			// not computed and the bracket test below fails on h = q[i-1].
			h := q.q[i-1]
			if q.q[i-1] != q.q[i+1] {
				h = q.parabolic(i, sign)
			}
			// When the neighbor the marker moves toward has q[i]'s height and
			// q[i] is finite and non-zero, the linear step would add a
			// signed zero, which leaves q[i] as it is: it is skipped.
			switch j := i + int(sign); {
			case q.q[i-1] < h && h < q.q[i+1]:
				q.q[i] = h
			case q.q[j] != q.q[i] || q.q[i] == 0 || math.IsInf(q.q[i], 0):
				q.q[i] = q.linear(i, sign)
			}
			q.m[i] += sign
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for moving
// marker i by sign (±1).
func (q *Quantile) parabolic(i int, sign float64) float64 {
	return q.q[i] + sign/(q.m[i+1]-q.m[i-1])*
		((q.m[i]-q.m[i-1]+sign)*(q.q[i+1]-q.q[i])/(q.m[i+1]-q.m[i])+
			(q.m[i+1]-q.m[i]-sign)*(q.q[i]-q.q[i-1])/(q.m[i]-q.m[i-1]))
}

// linear is the fallback height prediction when the parabola would leave
// the neighboring markers' bracket.
func (q *Quantile) linear(i int, sign float64) float64 {
	j := i + int(sign)
	return q.q[i] + sign*(q.q[j]-q.q[i])/(q.m[j]-q.m[i])
}

// Value returns the current quantile estimate: exact for fewer than five
// observations (linear-interpolated empirical quantile), the P² middle
// marker afterwards. NaN when empty.
func (q *Quantile) Value() float64 {
	switch {
	case q.n == 0:
		return math.NaN()
	case q.n < 5:
		s := make([]float64, q.n)
		copy(s, q.q[:q.n])
		sort.Float64s(s)
		return exactQuantile(s, q.p)
	default:
		return q.q[2]
	}
}

// exactQuantile linearly interpolates the p-quantile of sorted samples.
func exactQuantile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
