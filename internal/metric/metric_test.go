package metric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBandwidthBasics(t *testing.T) {
	m := Bandwidth()
	if m.Name() != "bandwidth" {
		t.Errorf("Name() = %q, want bandwidth", m.Name())
	}
	if m.Kind() != Concave {
		t.Errorf("Kind() = %v, want Concave", m.Kind())
	}
	if got := m.Combine(5, 3); got != 3 {
		t.Errorf("Combine(5,3) = %v, want 3 (bottleneck)", got)
	}
	if got := m.Combine(3, 5); got != 3 {
		t.Errorf("Combine(3,5) = %v, want 3 (bottleneck)", got)
	}
	if !m.Better(5, 3) {
		t.Error("Better(5,3) = false, want true (wider is better)")
	}
	if m.Better(3, 5) {
		t.Error("Better(3,5) = true, want false")
	}
	if m.Better(4, 4) {
		t.Error("Better must be strict: Better(4,4) = true")
	}
	if got := m.Combine(m.Identity(), 7); got != 7 {
		t.Errorf("Combine(Identity,7) = %v, want 7", got)
	}
	if !m.Better(1e-9, m.Worst()) {
		t.Error("any finite bandwidth must beat Worst()")
	}
}

func TestDelayBasics(t *testing.T) {
	m := Delay()
	if m.Name() != "delay" {
		t.Errorf("Name() = %q, want delay", m.Name())
	}
	if m.Kind() != Additive {
		t.Errorf("Kind() = %v, want Additive", m.Kind())
	}
	if got := m.Combine(5, 3); got != 8 {
		t.Errorf("Combine(5,3) = %v, want 8 (sum)", got)
	}
	if !m.Better(3, 5) {
		t.Error("Better(3,5) = false, want true (smaller is better)")
	}
	if m.Better(5, 3) {
		t.Error("Better(5,3) = true, want false")
	}
	if m.Better(4, 4) {
		t.Error("Better must be strict: Better(4,4) = true")
	}
	if got := m.Combine(m.Identity(), 7); got != 7 {
		t.Errorf("Combine(Identity,7) = %v, want 7", got)
	}
	if !m.Better(1e12, m.Worst()) {
		t.Error("any finite delay must beat Worst()")
	}
}

func TestHopMetricIgnoresWeight(t *testing.T) {
	m := Hop()
	if got := m.Combine(2, 99); got != 3 {
		t.Errorf("Combine(2, 99) = %v, want 3", got)
	}
	v := m.Identity()
	for range 4 {
		v = m.Combine(v, 5)
	}
	if v != 4 {
		t.Errorf("value over 4 links = %v, want 4", v)
	}
}

func TestEnergyIsAdditive(t *testing.T) {
	m := Energy()
	if m.Kind() != Additive {
		t.Fatalf("Kind() = %v, want Additive", m.Kind())
	}
	if got := m.Combine(m.Combine(m.Identity(), 1.5), 2.5); got != 4 {
		t.Errorf("path value = %v, want 4", got)
	}
}

func TestKindString(t *testing.T) {
	if Additive.String() != "additive" || Concave.String() != "concave" {
		t.Errorf("Kind strings wrong: %v %v", Additive, Concave)
	}
	if got := Kind(42).String(); got != "Kind(42)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"bandwidth", "delay", "hop", "energy"} {
		m, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q) error: %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, m.Name())
		}
	}
	if _, err := ByName("jitterbug"); err == nil {
		t.Error("ByName(jitterbug) succeeded, want error")
	}
}

// Every built-in metric's Better is the comparison its Kind names, on a grid
// with both zeros, both infinities and equal values: the search kernels order
// plain keys on that contract.
func TestMetricOrderMatchesKind(t *testing.T) {
	grid := []float64{math.Inf(-1), -3, -1, math.Copysign(0, -1), 0, 1e-300, 1, 1 + 0x1p-52, 3, math.Inf(1)}
	for _, name := range []string{"bandwidth", "delay", "hop", "energy"} {
		m, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range grid {
			for _, b := range grid {
				want := a < b
				if m.Kind() == Concave {
					want = a > b
				} else if m.Kind() != Additive {
					t.Fatalf("%s: kind %v", name, m.Kind())
				}
				if got := m.Better(a, b); got != want {
					t.Errorf("%s (%v): Better(%v, %v) = %v, want %v", name, m.Kind(), a, b, got, want)
				}
			}
		}
	}
}

// Property: Combine is monotone for both built-in path metrics — extending a
// path never improves its value.
func TestCombineNeverImproves(t *testing.T) {
	for _, m := range []Metric{Bandwidth(), Delay(), Energy()} {
		m := m
		f := func(path, link float64) bool {
			path = math.Abs(path)
			link = math.Abs(link) + 1e-9
			ext := m.Combine(path, link)
			return !m.Better(ext, path)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: extension improved path value: %v", m.Name(), err)
		}
	}
}

// Property: Better is a strict weak order — irreflexive and asymmetric.
func TestBetterStrictness(t *testing.T) {
	for _, m := range []Metric{Bandwidth(), Delay(), Hop(), Energy()} {
		m := m
		f := func(a, b float64) bool {
			if m.Better(a, a) || m.Better(b, b) {
				return false
			}
			if m.Better(a, b) && m.Better(b, a) {
				return false
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: Better not a strict order: %v", m.Name(), err)
		}
	}
}

func TestIntervalValidate(t *testing.T) {
	cases := []struct {
		iv      Interval
		wantErr bool
	}{
		{Interval{Lo: 1, Hi: 10}, false},
		{Interval{Lo: 0.5, Hi: 0.5}, false},
		{Interval{Lo: 0, Hi: 10}, true},
		{Interval{Lo: -1, Hi: 10}, true},
		{Interval{Lo: 5, Hi: 4}, true},
	}
	for _, c := range cases {
		err := c.iv.Validate()
		if (err != nil) != c.wantErr {
			t.Errorf("Validate(%v) error = %v, wantErr = %v", c.iv, err, c.wantErr)
		}
	}
}

func TestIntervalDraw(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	iv := Interval{Lo: 2, Hi: 5}
	for i := 0; i < 1000; i++ {
		v := iv.Draw(rng)
		if !iv.Contains(v) {
			t.Fatalf("draw %v outside %v", v, iv)
		}
	}
	point := Interval{Lo: 3, Hi: 3}
	if got := point.Draw(rng); got != 3 {
		t.Errorf("degenerate interval draw = %v, want 3", got)
	}
}

func TestIntervalString(t *testing.T) {
	if got := (Interval{Lo: 1, Hi: 10}).String(); got != "[1,10]" {
		t.Errorf("String() = %q", got)
	}
	if got := (Interval{Lo: 1, Hi: 10, Integer: true}).String(); got != "{1..10}" {
		t.Errorf("String() = %q", got)
	}
}

func TestIntervalDrawInteger(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	iv := Interval{Lo: 1, Hi: 4, Integer: true}
	seen := map[float64]int{}
	for i := 0; i < 4000; i++ {
		v := iv.Draw(rng)
		if v != math.Trunc(v) || v < 1 || v > 4 {
			t.Fatalf("integer draw %v outside {1..4}", v)
		}
		seen[v]++
	}
	for v := 1.0; v <= 4; v++ {
		if seen[v] < 800 {
			t.Errorf("value %v drawn only %d times, want ~1000", v, seen[v])
		}
	}
}

func TestDefaultInterval(t *testing.T) {
	if err := DefaultInterval().Validate(); err != nil {
		t.Fatalf("default interval invalid: %v", err)
	}
}

func TestLexicographicOrder(t *testing.T) {
	lex := Lexicographic{
		PrimaryMetric:   Bandwidth(),
		SecondaryMetric: Energy(),
		PrimaryWeight:   "bandwidth",
		SecondaryWeight: "energy",
	}
	a := LexCost{Primary: 5, Secondary: 2}
	b := LexCost{Primary: 5, Secondary: 1}
	if lex.Better(a, b) {
		t.Error("higher energy at same bandwidth should not be better")
	}
	if !lex.Better(b, a) {
		t.Error("lower energy at same bandwidth should be better")
	}
	wide := LexCost{Primary: 9, Secondary: 100}
	if !lex.Better(wide, b) {
		t.Error("wider path must dominate regardless of energy")
	}
	// Combine composes both channels with their own metric.
	got := lex.Combine(LexCost{Primary: 5, Secondary: 2}, LexCost{Primary: 3, Secondary: 4})
	if got.Primary != 3 || got.Secondary != 6 {
		t.Errorf("Combine = %+v, want {3 6}", got)
	}
}
