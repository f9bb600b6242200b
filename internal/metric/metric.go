// Package metric defines the QoS metric algebra used throughout the
// repository.
//
// The paper distinguishes two families of link metrics:
//
//   - additive metrics, such as delay, jitter or packet loss, where the cost
//     of a path is the sum of the costs of its links and smaller is better;
//   - concave metrics, such as bandwidth or available buffers, where the cost
//     of a path is the minimum over its links (a bottleneck) and larger is
//     better.
//
// Every selection and routing algorithm in this repository is written against
// the Metric interface so that the same code serves both families, exactly as
// Algorithms 1 and 2 of the paper are the same algorithm instantiated twice.
package metric

import (
	"fmt"
	"math"
)

// Kind classifies how link values compose along a path, and it is the
// metric's ordering contract: Better(a, b) is exactly a < b for an Additive
// metric and exactly a > b for a Concave one. The search kernels rely on it
// to order plain float keys without calling Better.
type Kind int

const (
	// Additive metrics accumulate along a path (delay, jitter, loss,
	// energy); smaller path values are better.
	Additive Kind = iota + 1
	// Concave metrics bottleneck along a path (bandwidth, buffers); larger
	// path values are better.
	Concave
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Additive:
		return "additive"
	case Concave:
		return "concave"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Metric describes a QoS link metric: how per-link values compose into path
// values and how path values compare. Implementations must be stateless and
// safe for concurrent use, and Better must be the comparison its Kind names
// (< for Additive, > for Concave).
type Metric interface {
	// Name returns a short lower-case identifier ("bandwidth", "delay").
	Name() string
	// Kind reports whether the metric is additive or concave.
	Kind() Kind
	// Combine extends a path of value pathValue by one link of value
	// linkValue and returns the value of the extended path.
	Combine(pathValue, linkValue float64) float64
	// Better reports whether path value a is strictly better than b: a < b
	// for an Additive metric, a > b for a Concave one.
	Better(a, b float64) bool
	// Identity is the value of the empty path: combining Identity with a
	// link value yields the link value unchanged, and Identity is at least
	// as good as any other value.
	Identity() float64
	// Worst is the value reported for unreachable destinations; every
	// reachable value is strictly better.
	Worst() float64
}

// bandwidth is the canonical concave metric from the paper: the bandwidth of
// a path is the minimum bandwidth over its links and larger is better.
type bandwidth struct{}

// Bandwidth returns the concave bandwidth metric (paper Sec. III-A:
// BW(p) = min over links, maximize).
func Bandwidth() Metric { return bandwidth{} }

func (bandwidth) Name() string { return "bandwidth" }
func (bandwidth) Kind() Kind   { return Concave }

func (bandwidth) Combine(pathValue, linkValue float64) float64 {
	return math.Min(pathValue, linkValue)
}

func (bandwidth) Better(a, b float64) bool { return a > b }
func (bandwidth) Identity() float64        { return math.Inf(1) }
func (bandwidth) Worst() float64           { return math.Inf(-1) }

// delay is the canonical additive metric from the paper: the delay of a path
// is the sum of the delays of its links and smaller is better.
type delay struct{}

// Delay returns the additive delay metric (paper Sec. III-A:
// D(p) = sum over links, minimize).
func Delay() Metric { return delay{} }

func (delay) Name() string { return "delay" }
func (delay) Kind() Kind   { return Additive }

func (delay) Combine(pathValue, linkValue float64) float64 {
	return pathValue + linkValue
}

func (delay) Better(a, b float64) bool { return a < b }
func (delay) Identity() float64        { return 0 }
func (delay) Worst() float64           { return math.Inf(1) }

// hop is the unit additive metric counting links; it is the metric implied by
// the original OLSR "shortest path in number of hops" behaviour.
type hop struct{}

// Hop returns the hop-count metric: every link costs 1, fewer hops are
// better. It ignores the provided link value, so it can run on any graph.
func Hop() Metric { return hop{} }

func (hop) Name() string { return "hop" }
func (hop) Kind() Kind   { return Additive }

func (hop) Combine(pathValue, _ float64) float64 { return pathValue + 1 }
func (hop) Better(a, b float64) bool             { return a < b }
func (hop) Identity() float64                    { return 0 }
func (hop) Worst() float64                       { return math.Inf(1) }

// energy is an additive metric modelling transmission energy per link, the
// extension named in the paper's future-work section (Sec. V), following the
// residual-energy discussion it cites.
type energy struct{}

// Energy returns the additive energy metric: the energy of a path is the sum
// of per-link transmission costs and smaller is better.
func Energy() Metric { return energy{} }

func (energy) Name() string { return "energy" }
func (energy) Kind() Kind   { return Additive }

func (energy) Combine(pathValue, linkValue float64) float64 {
	return pathValue + linkValue
}

func (energy) Better(a, b float64) bool { return a < b }
func (energy) Identity() float64        { return 0 }
func (energy) Worst() float64           { return math.Inf(1) }

// Compile-time interface compliance checks.
var (
	_ Metric = bandwidth{}
	_ Metric = delay{}
	_ Metric = hop{}
	_ Metric = energy{}
)

// ByName returns the built-in metric with the given name. It recognises
// "bandwidth", "delay", "hop" and "energy".
func ByName(name string) (Metric, error) {
	switch name {
	case "bandwidth":
		return Bandwidth(), nil
	case "delay":
		return Delay(), nil
	case "hop":
		return Hop(), nil
	case "energy":
		return Energy(), nil
	default:
		return nil, fmt.Errorf("metric: unknown metric %q", name)
	}
}
