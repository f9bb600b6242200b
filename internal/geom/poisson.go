package geom

import (
	"fmt"
	"math"
	"math/rand"
)

// Deployment describes a Poisson-point-process deployment in the paper's
// evaluation style: the target mean node degree δ and the communication
// radius R determine the process intensity λ = δ/(πR²), and the number of
// nodes dropped on the field is Poisson(λ · area) with independent uniform
// positions.
type Deployment struct {
	Field  Field
	Radius float64
	// Degree is the target mean node degree δ (the paper's x-axis).
	Degree float64
}

// PaperDeployment returns the paper's deployment with the given target
// degree: 1000×1000 field, R = 100.
func PaperDeployment(degree float64) Deployment {
	return Deployment{Field: PaperField(), Radius: 100, Degree: degree}
}

// Validate checks the deployment parameters.
func (d Deployment) Validate() error {
	if err := d.Field.Validate(); err != nil {
		return err
	}
	if !(d.Radius > 0) {
		return fmt.Errorf("geom: radius %g must be positive", d.Radius)
	}
	if !(d.Degree > 0) {
		return fmt.Errorf("geom: target degree %g must be positive", d.Degree)
	}
	return nil
}

// Intensity returns the process intensity λ = δ/(πR²).
func (d Deployment) Intensity() float64 {
	return d.Degree / (math.Pi * d.Radius * d.Radius)
}

// ExpectedNodes returns the expected number of deployed nodes λ·area.
func (d Deployment) ExpectedNodes() float64 {
	return d.Intensity() * d.Field.Area()
}

// Sample draws one realisation of the point process using rng. The number of
// points follows a Poisson law of mean ExpectedNodes(); positions are i.i.d.
// uniform over the field.
func (d Deployment) Sample(rng *rand.Rand) ([]Point, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n := poissonDraw(rng, d.ExpectedNodes())
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			X: rng.Float64() * d.Field.Width,
			Y: rng.Float64() * d.Field.Height,
		}
	}
	return pts, nil
}

// poissonDraw samples a Poisson random variate of the given mean. For small
// means it uses Knuth's product method; for large means (all realistic
// densities in the paper produce hundreds of nodes) it uses the normal
// approximation with continuity correction, which is indistinguishable at
// these scales and runs in constant time.
func poissonDraw(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		// Knuth: count multiplications until the product drops below e^-mean.
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := int(math.Round(mean + math.Sqrt(mean)*rng.NormFloat64()))
	if n < 0 {
		return 0
	}
	return n
}

// Links lists the unit-disk links among pts: every unordered pair at
// Euclidean distance at most radius, discovered through a spatial grid. Each
// pair has A < B; pairs come in ascending A, and one A's partners in the
// order Grid.Within visits them (not ascending B).
func Links(field Field, radius float64, pts []Point) ([][2]int32, error) {
	grid, err := NewGrid(field, radius, pts)
	if err != nil {
		return nil, err
	}
	// Size both slices from the grid, so a call allocates as often at any
	// field size: partners share a 3×3 block of cells.
	pairs, widest := grid.blockBound()
	links := make([][2]int32, 0, pairs)
	scratch := make([]int32, 0, widest)
	for i := range pts {
		scratch = grid.Within(i, radius, scratch[:0])
		for _, j := range scratch {
			if int32(i) < j {
				links = append(links, [2]int32{int32(i), j})
			}
		}
	}
	return links, nil
}
