package stats

import (
	"math"
	"sort"
	"testing"

	"qolsr/internal/rng"
)

func TestQuantilePanicsOutsideUnitInterval(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewQuantile(%g) did not panic", p)
				}
			}()
			NewQuantile(p)
		}()
	}
}

func TestQuantileEmptyAndSmall(t *testing.T) {
	q := NewQuantile(0.5)
	if !math.IsNaN(q.Value()) {
		t.Errorf("empty Value = %g, want NaN", q.Value())
	}
	q.Add(7)
	if got := q.Value(); got != 7 {
		t.Errorf("single Value = %g, want 7", got)
	}
	q.Add(1)
	// Exact interpolated median of {1, 7}.
	if got := q.Value(); got != 4 {
		t.Errorf("two-sample median = %g, want 4", got)
	}
	q.Add(3)
	if got := q.Value(); got != 3 {
		t.Errorf("three-sample median = %g, want 3", got)
	}
	if q.N() != 3 || q.P() != 0.5 {
		t.Errorf("N=%d P=%g, want 3 0.5", q.N(), q.P())
	}
}

// exactOf computes the reference empirical quantile of a sample.
func exactOf(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return exactQuantile(s, p)
}

func TestQuantileAgainstExact(t *testing.T) {
	// Draw deterministic samples from several distributions and check the
	// P² estimate lands near the exact empirical quantile. Tolerances are
	// relative to the sample spread — P² is an approximation, but on these
	// sizes it is a close one.
	cases := []struct {
		name string
		draw func(u float64) float64
	}{
		{"uniform", func(u float64) float64 { return u }},
		{"exponential", func(u float64) float64 { return -math.Log(1 - u) }},
		{"bimodal", func(u float64) float64 {
			if u < 0.5 {
				return u
			}
			return 10 + u
		}},
	}
	for _, tc := range cases {
		for _, p := range []float64{0.5, 0.95, 0.99} {
			if tc.name == "bimodal" && p == 0.5 {
				// The bimodal median sits inside the density gap, where
				// every value between the modes splits the mass 50/50 —
				// there is no well-defined target for an interpolating
				// estimator to converge to.
				continue
			}
			s := rng.NewStream(42, uint64(p*100))
			q := NewQuantile(p)
			xs := make([]float64, 0, 5000)
			for i := 0; i < 5000; i++ {
				x := tc.draw(s.Float64())
				xs = append(xs, x)
				q.Add(x)
			}
			exact := exactOf(xs, p)
			spread := exactOf(xs, 0.999) - exactOf(xs, 0.001)
			if diff := math.Abs(q.Value() - exact); diff > 0.05*spread {
				t.Errorf("%s p=%g: estimate %.4f vs exact %.4f (diff %.4f, spread %.4f)",
					tc.name, p, q.Value(), exact, diff, spread)
			}
		}
	}
}

func TestQuantileMonotoneWithinMarkers(t *testing.T) {
	// The estimate must always stay inside the observed range.
	s := rng.NewStream(7)
	q := NewQuantile(0.95)
	min, max := math.Inf(1), math.Inf(-1)
	for i := 0; i < 2000; i++ {
		x := s.Float64() * 100
		min = math.Min(min, x)
		max = math.Max(max, x)
		q.Add(x)
		if v := q.Value(); v < min || v > max {
			t.Fatalf("estimate %g escaped observed range [%g, %g] at n=%d", v, min, max, i+1)
		}
	}
}

func TestQuantileDeterministic(t *testing.T) {
	run := func() float64 {
		s := rng.NewStream(3)
		q := NewQuantile(0.99)
		for i := 0; i < 1000; i++ {
			q.Add(s.Float64())
		}
		return q.Value()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same sequence produced different estimates: %g vs %g", a, b)
	}
}

// referenceQuantile is Quantile.Add as it was before the collapsed-bracket
// and signed-zero shortcuts: the parabola computed on every adjustment and
// the linear step always taken in full. It shares the stored state and the
// first five observations' path with Add.
type referenceQuantile struct{ Quantile }

func (r *referenceQuantile) Add(x float64) {
	q := &r.Quantile
	if q.n < 5 {
		q.Add(x)
		return
	}
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
	q.d[1] += q.p / 2
	q.d[2] += q.p
	q.d[3] += (1 + q.p) / 2
	q.d[4]++
	for i := 1; i <= 3; i++ {
		delta := q.d[i] - q.m[i]
		if (delta >= 1 && q.m[i+1]-q.m[i] > 1) || (delta <= -1 && q.m[i-1]-q.m[i] < -1) {
			sign := 1.0
			if delta < 0 {
				sign = -1
			}
			h := q.parabolic(i, sign)
			if q.q[i-1] < h && h < q.q[i+1] {
				q.q[i] = h
			} else {
				j := i + int(sign)
				q.q[i] = q.q[i] + sign*(q.q[j]-q.q[i])/(q.m[j]-q.m[i])
			}
			q.m[i] += sign
		}
	}
}

// The shortcuts in Add change no bit of the estimator's state: on constant,
// two-valued, zero, negative, infinite and NaN streams, and on continuous
// ones, every marker height and position equals the reference's after every
// observation, at the medians and tails the harness reports.
func TestQuantileAddMatchesReference(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	negZero := math.Copysign(0, -1)
	r := rng.NewStream(17)
	pick := func(xs ...float64) float64 { return xs[r.Int63n(int64(len(xs)))] }
	streams := []struct {
		name string
		draw func(i int) float64
	}{
		{"constant", func(int) float64 { return 3.25 }},
		{"two-valued", func(int) float64 { return pick(1, 2) }},
		{"mostly-tied", func(int) float64 { return pick(5, 5, 5, 5, 9) }},
		{"zeros", func(int) float64 { return pick(0, negZero) }},
		{"zero-and-one", func(int) float64 { return pick(0, negZero, 1) }},
		{"negative", func(int) float64 { return pick(-1, -2, -3, -4) }},
		{"infinities", func(int) float64 { return pick(-inf, inf, 1, 1) }},
		{"with-nan", func(int) float64 { return pick(nan, 2, 2, 3) }},
		{"continuous", func(int) float64 { return 100 * r.Float64() }},
		{"ramp", func(i int) float64 { return float64(i) }},
		{"tiny-negative", func(int) float64 { return pick(0, -1e-300, -2e-300) }},
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, st := range streams {
		for _, p := range []float64{0.5, 0.95, 0.99} {
			got, want := NewQuantile(p), &referenceQuantile{*NewQuantile(p)}
			for i := 0; i < 2000; i++ {
				x := st.draw(i)
				got.Add(x)
				want.Add(x)
				for k := range got.q {
					if !same(got.q[k], want.q[k]) || got.m[k] != want.m[k] {
						t.Fatalf("%s p=%v obs %d: markers %v at %v, reference %v at %v", st.name, p, i, got.q, got.m, want.q, want.m)
					}
				}
			}
		}
	}
}
