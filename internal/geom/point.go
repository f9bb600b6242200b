// Package geom provides the geometric substrate of the reproduction: node
// placement by a Poisson point process over a square field, a spatial hash
// grid for radius queries, and unit-disk link extraction.
//
// The paper's evaluation (Sec. IV-A) deploys nodes "in a 1000 × 1000 square
// using a Poisson Point Process" with communication radius R = 100 and mean
// node degree δ, where the process intensity is λ = δ/(πR²).
package geom

import (
	"fmt"
	"math"
)

// Point is a position in the deployment field.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root for radius comparisons.
func (p Point) Dist2(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.2f,%.2f)", p.X, p.Y)
}

// Field is a rectangular deployment area [0,Width] × [0,Height].
type Field struct {
	Width, Height float64
}

// PaperField returns the 1000×1000 field from the paper's evaluation.
func PaperField() Field { return Field{Width: 1000, Height: 1000} }

// Validate reports whether the field has positive, finite area.
func (f Field) Validate() error {
	if !(f.Width > 0 && f.Width <= math.MaxFloat64) || !(f.Height > 0 && f.Height <= math.MaxFloat64) {
		return fmt.Errorf("geom: field %gx%g must have positive finite dimensions", f.Width, f.Height)
	}
	return nil
}

// Area returns the field's area.
func (f Field) Area() float64 { return f.Width * f.Height }

// Contains reports whether p lies inside the field (borders included).
func (f Field) Contains(p Point) bool {
	return p.X >= 0 && p.X <= f.Width && p.Y >= 0 && p.Y <= f.Height
}
