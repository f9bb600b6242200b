package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestPointDist(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	if got := a.Dist(b); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := a.Dist2(b); got != 25 {
		t.Errorf("Dist2 = %v, want 25", got)
	}
	if a.Dist(a) != 0 {
		t.Error("self distance not zero")
	}
}

func TestPointString(t *testing.T) {
	if got := (Point{1, 2}).String(); got != "(1.00,2.00)" {
		t.Errorf("String = %q", got)
	}
}

func TestFieldValidate(t *testing.T) {
	if err := PaperField().Validate(); err != nil {
		t.Fatalf("paper field invalid: %v", err)
	}
	for _, f := range []Field{{0, 10}, {10, 0}, {-1, 5}} {
		if err := f.Validate(); err == nil {
			t.Errorf("field %+v accepted", f)
		}
	}
}

func TestFieldContains(t *testing.T) {
	f := Field{100, 50}
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{100, 50}, true},
		{Point{50, 25}, true},
		{Point{-0.1, 25}, false},
		{Point{50, 50.1}, false},
	}
	for _, c := range cases {
		if got := f.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestGridWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	field := Field{Width: 500, Height: 300}
	const radius = 60
	pts := make([]Point, 400)
	for i := range pts {
		pts[i] = Point{rng.Float64() * field.Width, rng.Float64() * field.Height}
	}
	grid, err := NewGrid(field, radius, pts)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	if grid.Len() != len(pts) {
		t.Fatalf("Len = %d, want %d", grid.Len(), len(pts))
	}
	var got []int32
	for i := range pts {
		got = grid.Within(i, radius, got[:0])
		want := map[int32]bool{}
		for j := range pts {
			if i != j && pts[i].Dist(pts[j]) <= radius {
				want[int32(j)] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("point %d: got %d neighbors, want %d", i, len(got), len(want))
		}
		for _, j := range got {
			if !want[j] {
				t.Fatalf("point %d: spurious neighbor %d", i, j)
			}
		}
	}
}

func TestGridRejectsBadInput(t *testing.T) {
	field := Field{100, 100}
	if _, err := NewGrid(field, 0, nil); err == nil {
		t.Error("zero cell size accepted")
	}
	if _, err := NewGrid(field, 10, []Point{{200, 5}}); err == nil {
		t.Error("out-of-field point accepted")
	}
	if _, err := NewGrid(Field{0, 0}, 10, nil); err == nil {
		t.Error("invalid field accepted")
	}
	if _, err := NewGrid(Field{math.Inf(1), 100}, 10, nil); err == nil {
		t.Error("infinite field accepted")
	}
}

func TestGridBoundaryPoints(t *testing.T) {
	// Points exactly on the far border must land in a valid cell.
	field := Field{100, 100}
	pts := []Point{{100, 100}, {0, 0}, {100, 0}, {0, 100}}
	grid, err := NewGrid(field, 30, pts)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	got := grid.Within(0, 30, nil)
	if len(got) != 0 {
		t.Errorf("corner point has %d neighbors within 30, want 0", len(got))
	}
}

func TestDeploymentValidate(t *testing.T) {
	if err := PaperDeployment(20).Validate(); err != nil {
		t.Fatalf("paper deployment invalid: %v", err)
	}
	bad := []Deployment{
		{Field: Field{0, 0}, Radius: 100, Degree: 10},
		{Field: PaperField(), Radius: 0, Degree: 10},
		{Field: PaperField(), Radius: 100, Degree: 0},
	}
	for _, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("deployment %+v accepted", d)
		}
	}
}

func TestDeploymentIntensity(t *testing.T) {
	d := PaperDeployment(20)
	wantLambda := 20 / (math.Pi * 100 * 100)
	if math.Abs(d.Intensity()-wantLambda) > 1e-15 {
		t.Errorf("Intensity = %v, want %v", d.Intensity(), wantLambda)
	}
	// Expected node count for δ=20 on the paper field: 20·10^6/(π·10^4) ≈ 637.
	if got := d.ExpectedNodes(); math.Abs(got-636.6) > 1 {
		t.Errorf("ExpectedNodes = %v, want ≈636.6", got)
	}
}

func TestSampleNodeCountConcentrates(t *testing.T) {
	d := PaperDeployment(15)
	rng := rand.New(rand.NewSource(42))
	var total float64
	const runs = 30
	for i := 0; i < runs; i++ {
		pts, err := d.Sample(rng)
		if err != nil {
			t.Fatalf("Sample: %v", err)
		}
		for _, p := range pts {
			if !d.Field.Contains(p) {
				t.Fatalf("sampled point %v outside field", p)
			}
		}
		total += float64(len(pts))
	}
	mean := total / runs
	want := d.ExpectedNodes()
	if math.Abs(mean-want) > want*0.05 {
		t.Errorf("empirical mean node count %v too far from %v", mean, want)
	}
}

func TestSampleInvalid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := (Deployment{}).Sample(rng); err == nil {
		t.Error("invalid deployment sampled")
	}
}

func TestPoissonDrawSmallMean(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sum int
	const n = 20000
	for i := 0; i < n; i++ {
		sum += poissonDraw(rng, 3.5)
	}
	mean := float64(sum) / n
	if math.Abs(mean-3.5) > 0.1 {
		t.Errorf("small-mean Poisson empirical mean %v, want 3.5", mean)
	}
	if poissonDraw(rng, 0) != 0 {
		t.Error("zero mean must give zero")
	}
	if poissonDraw(rng, -5) != 0 {
		t.Error("negative mean must give zero")
	}
}

func TestPoissonDrawLargeMeanVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const mean = 500.0
	const n = 4000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := float64(poissonDraw(rng, mean))
		sum += v
		sumsq += v * v
	}
	m := sum / n
	variance := sumsq/n - m*m
	if math.Abs(m-mean) > 5 {
		t.Errorf("large-mean empirical mean %v, want %v", m, mean)
	}
	// Poisson variance equals the mean.
	if math.Abs(variance-mean) > mean*0.15 {
		t.Errorf("large-mean empirical variance %v, want ≈%v", variance, mean)
	}
}

func TestLinksMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	field := Field{Width: 400, Height: 400}
	const radius = 70
	pts := make([]Point, 150)
	for i := range pts {
		pts[i] = Point{rng.Float64() * field.Width, rng.Float64() * field.Height}
	}
	links, err := Links(field, radius, pts)
	if err != nil {
		t.Fatalf("Links: %v", err)
	}
	want := 0
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Dist(pts[j]) <= radius {
				want++
			}
		}
	}
	if len(links) != want {
		t.Fatalf("got %d links, want %d", len(links), want)
	}
	for _, l := range links {
		if l[0] >= l[1] {
			t.Fatalf("link %v not ordered", l)
		}
		if pts[l[0]].Dist(pts[l[1]]) > radius {
			t.Fatalf("link %v longer than radius", l)
		}
	}
}

func TestLinksEmpty(t *testing.T) {
	links, err := Links(Field{10, 10}, 5, nil)
	if err != nil {
		t.Fatalf("Links: %v", err)
	}
	if len(links) != 0 {
		t.Errorf("empty input produced %d links", len(links))
	}
}

// The mean observed degree of a sampled deployment should approach the target
// degree δ (up to border effects, which reduce it slightly).
func TestDeploymentDegreeCalibration(t *testing.T) {
	d := PaperDeployment(20)
	rng := rand.New(rand.NewSource(99))
	var degrees float64
	var count int
	for run := 0; run < 5; run++ {
		pts, err := d.Sample(rng)
		if err != nil {
			t.Fatalf("Sample: %v", err)
		}
		links, err := Links(d.Field, d.Radius, pts)
		if err != nil {
			t.Fatalf("Links: %v", err)
		}
		degrees += float64(2 * len(links))
		count += len(pts)
	}
	mean := degrees / float64(count)
	// Border effects lose ~10% of the disk for border nodes; accept 15–21.
	if mean < 15 || mean > 21 {
		t.Errorf("mean degree %v, want near 20 (minus border effects)", mean)
	}
}
