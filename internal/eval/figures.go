package eval

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"

	"qolsr/internal/geom"
	"qolsr/internal/metric"
	"qolsr/internal/stats"
)

// Quantity names a measured series: a figure's headline, one of the series
// every figure run measures, or a live grid's reading.
type Quantity string

// The quantities a figure can headline (QuantityNames).
const (
	// QuantitySetSize is the advertised-set size per node.
	QuantitySetSize Quantity = "set-size"
	// QuantityOverhead is the per-pair relative regret vs the centralized
	// optimum, over delivered pairs only.
	QuantityOverhead Quantity = "overhead"
	// QuantityDelivery is the per-pair delivery indicator (1 delivered, 0
	// not).
	QuantityDelivery Quantity = "delivery"
	// QuantityDirectedDelivery is the all-pairs delivery ratio under
	// directed-advertisement semantics (ablation A1), measured only for a
	// figure that headlines it: it is quadratic in node count.
	QuantityDirectedDelivery Quantity = "directed-delivery"
)

// The series a figure run also measures: the used path length over
// delivered pairs, the run's realised node count, and 1 for a run skipped
// for want of a connected pair, else 0 (whose topology still gives set
// sizes).
const (
	quantityHops    Quantity = "hops"
	quantityNodes   Quantity = "nodes"
	quantitySkipped Quantity = "skipped"
)

// Figure describes one paper figure to regenerate.
type Figure struct {
	// ID is the figure identifier ("fig6" ... "fig9").
	ID string
	// Title is the paper's caption summary.
	Title string
	// Metric is the QoS metric of the sweep.
	Metric metric.Metric
	// Degrees is the density x-axis.
	Degrees []float64
	// Quantity is the series the figure's table headlines; its sweep
	// carries every series a run measures.
	Quantity Quantity
	// Protocols are the compared curves.
	Protocols []ProtocolSpec
}

// PaperFigures returns the four evaluation figures with the paper's
// parameters. The x-ranges follow the plots: bandwidth sweeps density 10-35,
// delay sweeps 5-30.
func PaperFigures() []Figure {
	return []Figure{
		{
			ID:        "fig6",
			Title:     "Size of the advertised set vs density (bandwidth)",
			Metric:    metric.Bandwidth(),
			Degrees:   []float64{10, 15, 20, 25, 30, 35},
			Quantity:  QuantitySetSize,
			Protocols: PaperProtocols(),
		},
		{
			ID:        "fig7",
			Title:     "Size of the advertised set vs density (delay)",
			Metric:    metric.Delay(),
			Degrees:   []float64{5, 10, 15, 20, 25, 30},
			Quantity:  QuantitySetSize,
			Protocols: PaperProtocols(),
		},
		{
			ID:        "fig8",
			Title:     "Bandwidth overhead vs density",
			Metric:    metric.Bandwidth(),
			Degrees:   []float64{10, 15, 20, 25, 30, 35},
			Quantity:  QuantityOverhead,
			Protocols: PaperProtocols(),
		},
		{
			ID:        "fig9",
			Title:     "Delay overhead vs density",
			Metric:    metric.Delay(),
			Degrees:   []float64{5, 10, 15, 20, 25, 30},
			Quantity:  QuantityOverhead,
			Protocols: PaperProtocols(),
		},
	}
}

// FigureByID returns the paper figure with the given ID.
func FigureByID(id string) (Figure, error) {
	for _, f := range PaperFigures() {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("eval: unknown figure %q (have fig6..fig9)", id)
}

// QuantityNames lists the quantities a figure can headline.
func QuantityNames() []string {
	return []string{string(QuantitySetSize), string(QuantityOverhead), string(QuantityDelivery), string(QuantityDirectedDelivery)}
}

// Ablations returns the repository's ablation sweeps, composable by ID like
// the paper figures. Each reuses the bandwidth density axis of Fig. 6.
func Ablations() []Figure {
	degrees := []float64{10, 15, 20, 25, 30, 35}
	return []Figure{
		{
			ID:        "ablation-loopfix",
			Title:     "A1: FNBP loop-fix variants (directed-advertisement delivery ratio)",
			Metric:    metric.Bandwidth(),
			Degrees:   degrees,
			Quantity:  QuantityDirectedDelivery,
			Protocols: LoopFixAblation(),
		},
		{
			ID:        "ablation-loopfix-size",
			Title:     "A1: FNBP loop-fix variants (advertised-set size)",
			Metric:    metric.Bandwidth(),
			Degrees:   degrees,
			Quantity:  QuantitySetSize,
			Protocols: LoopFixAblation(),
		},
		{
			ID:        "ablation-locallinks",
			Title:     "A2: overhead with and without the source's local links",
			Metric:    metric.Bandwidth(),
			Degrees:   degrees,
			Quantity:  QuantityOverhead,
			Protocols: LocalLinksAblation(),
		},
		{
			ID:        "ablation-mprs",
			Title:     "MPR heuristics as advertised sets (set size)",
			Metric:    metric.Bandwidth(),
			Degrees:   degrees,
			Quantity:  QuantitySetSize,
			Protocols: MPRHeuristicAblation(),
		},
		{
			ID:        "ablation-policy",
			Title:     "A6: QOLSR routing-policy readings (overhead)",
			Metric:    metric.Bandwidth(),
			Degrees:   degrees,
			Quantity:  QuantityOverhead,
			Protocols: RoutingPolicyAblation(),
		},
		{
			ID:        "ablation-upper",
			Title:     "Paper protocols + full link-state bound (overhead)",
			Metric:    metric.Bandwidth(),
			Degrees:   degrees,
			Quantity:  QuantityOverhead,
			Protocols: UpperBoundProtocols(),
		},
	}
}

// SweepByID resolves a figure or ablation by ID. Ablations also answer to
// their short form without the "ablation-" prefix ("loopfix", "mprs", ...).
func SweepByID(id string) (Figure, error) {
	if f, err := FigureByID(id); err == nil {
		return f, nil
	}
	for _, f := range Ablations() {
		if f.ID == id || f.ID == "ablation-"+id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("eval: unknown sweep %q (have %s)", id, strings.Join(SweepIDs(), ", "))
}

// SweepIDs lists every composable sweep ID: the paper figures followed by
// the ablations.
func SweepIDs() []string {
	var ids []string
	for _, f := range append(PaperFigures(), Ablations()...) {
		ids = append(ids, f.ID)
	}
	return ids
}

// figureSeries lists what a figure run measures per protocol, in cell
// order: set size, overhead, directed delivery where it is measured,
// delivery, hops, nodes and skipped.
func figureSeries(directed bool) []Quantity {
	if directed {
		return []Quantity{QuantitySetSize, QuantityOverhead, QuantityDirectedDelivery, QuantityDelivery, quantityHops, quantityNodes, quantitySkipped}
	}
	return []Quantity{QuantitySetSize, QuantityOverhead, QuantityDelivery, quantityHops, quantityNodes, quantitySkipped}
}

// point returns the figure's density point at the given degree.
func (f Figure) point(deg float64, seed int64) pointSpec {
	return pointSpec{
		deployment: geom.PaperDeployment(deg),
		metric:     f.Metric,
		seed:       seed,
		directed:   f.Quantity == QuantityDirectedDelivery,
		protocols:  f.Protocols,
	}
}

// sweep returns the figure's result before any point lands. It carries
// every series a run measures; the table shows the figure's own quantity
// with its ±95% and, beside an overhead (averaged over delivered pairs
// only) or a directed delivery, the delivery.
func (f Figure) sweep(runs int, seed int64) *Sweep {
	s := &Sweep{
		ID: f.ID, Title: f.ID + " — " + f.Title, Axis: "density", Points: f.Degrees,
		Metric: f.Metric.Name(), Runs: runs, Seed: seed, cells: make([][][]stats.Accumulator, len(f.Degrees)),
	}
	for _, p := range f.Protocols {
		s.Columns = append(s.Columns, p.Name)
	}
	for _, name := range figureSeries(f.Quantity == QuantityDirectedDelivery) {
		q := quantity{name: name}
		switch {
		case name == f.Quantity:
			q.format, q.ci = "%.4f", true
		case name == QuantityDelivery && (f.Quantity == QuantityOverhead || f.Quantity == QuantityDirectedDelivery):
			q.format = "%.4f"
		}
		s.quantities = append(s.quantities, q)
	}
	return s
}

// runFigures evaluates the figures at o.Runs topologies per density point
// under o.Seed and returns one sweep per figure, in order. The cell loop's
// axis is the figures' distinct density points: two figures share a point
// at equal degree when they agree on the metric, on the protocols
// (compared in full, not by name) and on whether directed delivery is
// measured, so Figs. 6 and 8 are one bandwidth sweep and Figs. 7 and 9 one
// delay sweep. A shared point is simulated once, and its row of
// accumulators is read-only in every sweep that holds it.
//
// Up to o.Workers (point, run) topologies run at once; the result is
// bit-identical at every setting. When a point completes, done (if set) is
// called once for every (figure, point index) that references it, after
// the point is stored in the figure's sweep; calls never overlap, and jobs
// landing meanwhile wait for the call, so done must not block. Cancelling
// ctx returns ctx.Err(); otherwise the error returned is that of the first
// failing point in figure and density order. A non-positive run count, a
// figure without density points, without protocols or with an unknown
// quantity, and an invalid deployment are rejected before any topology is
// drawn.
func runFigures(ctx context.Context, figs []Figure, o Options, done func(s *Sweep, fi, pi int)) ([]*Sweep, error) {
	runs := o.Runs
	if runs <= 0 {
		return nil, fmt.Errorf("eval: runs must be positive, got %d", runs)
	}
	type ref struct{ fi, pi int }
	var (
		specs []pointSpec
		refs  [][]ref
	)
	results := make([]*Sweep, len(figs))
	for fi, f := range figs {
		if len(f.Degrees) == 0 || len(f.Protocols) == 0 {
			return nil, fmt.Errorf("eval: figure %s has no density points or no protocols", f.ID)
		}
		if !slices.Contains(QuantityNames(), string(f.Quantity)) {
			return nil, fmt.Errorf("eval: figure %s: unknown quantity %q", f.ID, f.Quantity)
		}
		results[fi] = f.sweep(runs, o.Seed)
		for pi, deg := range f.Degrees {
			spec := f.point(deg, o.Seed)
			pt := slices.IndexFunc(specs, func(s pointSpec) bool { return reflect.DeepEqual(s, spec) })
			if pt < 0 {
				if err := spec.deployment.Validate(); err != nil {
					return nil, fmt.Errorf("eval: %s density %g: %w", f.ID, deg, err)
				}
				pt = len(specs)
				specs, refs = append(specs, spec), append(refs, nil)
			}
			refs[pt] = append(refs[pt], ref{fi, pi})
		}
	}
	_, err := pointSweep(specs, runs, o.Workers, func(pt int, row [][][]stats.Accumulator) {
		for _, r := range refs[pt] {
			results[r.fi].cells[r.pi] = row[0]
			if done != nil {
				done(results[r.fi], r.fi, r.pi)
			}
		}
	}).run(ctx)
	if err != nil {
		return nil, err
	}
	return results, nil
}
