package eval

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"qolsr/internal/geom"
	"qolsr/internal/metric"
)

// Quantity selects which measured series a figure reports.
type Quantity string

// Quantities reported by the paper's figures.
const (
	// QuantitySetSize is the mean advertised-set size per node.
	QuantitySetSize Quantity = "set-size"
	// QuantityOverhead is the mean relative regret vs the optimum.
	QuantityOverhead Quantity = "overhead"
	// QuantityDelivery is the delivery ratio (ablations only).
	QuantityDelivery Quantity = "delivery"
	// QuantityDirectedDelivery is the all-pairs delivery ratio under
	// directed-advertisement semantics (ablation A1).
	QuantityDirectedDelivery Quantity = "directed-delivery"
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
	// Quantity is the reported series.
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

// quantities is the canonical registry, in listing order; QuantityByName
// and QuantityNames both derive from it so the two can never drift apart.
func quantities() []Quantity {
	return []Quantity{QuantitySetSize, QuantityOverhead, QuantityDelivery, QuantityDirectedDelivery}
}

// QuantityByName resolves a quantity's string form ("set-size", "overhead",
// "delivery" or "directed-delivery").
func QuantityByName(name string) (Quantity, error) {
	for _, q := range quantities() {
		if string(q) == name {
			return q, nil
		}
	}
	return "", fmt.Errorf("eval: unknown quantity %q", name)
}

// QuantityNames lists every reportable quantity's string form.
func QuantityNames() []string {
	qs := quantities()
	names := make([]string, len(qs))
	for i, q := range qs {
		names[i] = string(q)
	}
	return names
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
	for _, f := range PaperFigures() {
		ids = append(ids, f.ID)
	}
	for _, f := range Ablations() {
		ids = append(ids, f.ID)
	}
	return ids
}

// Scenario returns the figure's density point at the given degree, ready
// for RunPoint. Runs, Seed and the weight law come from the caller.
func (f Figure) Scenario(deg float64, runs int, seed int64, iv metric.Interval) Scenario {
	return Scenario{
		Deployment:              geom.PaperDeployment(deg),
		Metric:                  f.Metric,
		WeightInterval:          iv,
		Runs:                    runs,
		Seed:                    seed,
		MeasureDirectedDelivery: f.Quantity == QuantityDirectedDelivery,
	}
}

// FigureResult is a regenerated figure: one PointResult per density.
type FigureResult struct {
	Figure Figure
	Points []*PointResult
	// Runs is the per-point run count used.
	Runs int
}

// series extracts the figure's quantity for one protocol at one point.
func (fr *FigureResult) series(p *PointResult, name string) (mean, ci float64) {
	pp := p.Protocols[name]
	if pp == nil {
		return 0, 0
	}
	switch fr.Figure.Quantity {
	case QuantitySetSize:
		return pp.SetSize.Mean(), pp.SetSize.CI95()
	case QuantityOverhead:
		return pp.Overhead.Mean(), pp.Overhead.CI95()
	case QuantityDelivery:
		return pp.Delivery.Mean(), pp.Delivery.CI95()
	case QuantityDirectedDelivery:
		return pp.DirectedDelivery.Mean(), pp.DirectedDelivery.CI95()
	default:
		return 0, 0
	}
}

// ProtocolNames returns the figure's protocol column order.
func (fr *FigureResult) ProtocolNames() []string {
	names := make([]string, 0, len(fr.Figure.Protocols))
	for _, p := range fr.Figure.Protocols {
		names = append(names, p.Name)
	}
	return names
}

// Value returns the mean series value for one protocol at the i-th density.
func (fr *FigureResult) Value(i int, protocol string) float64 {
	v, _ := fr.series(fr.Points[i], protocol)
	return v
}

// WriteTable renders the figure as an aligned text table with 95% CIs —
// the same rows the paper plots.
func (fr *FigureResult) WriteTable(w io.Writer) error {
	names := fr.ProtocolNames()
	header := []string{"density"}
	for _, n := range names {
		header = append(header, n, "±95%")
	}
	rows := make([][]string, len(fr.Points))
	for i, p := range fr.Points {
		rows[i] = []string{fmt.Sprintf("%g", fr.Figure.Degrees[i])}
		for _, n := range names {
			mean, ci := fr.series(p, n)
			rows[i] = append(rows[i], fmt.Sprintf("%.4f", mean), fmt.Sprintf("%.4f", ci))
		}
	}
	return writeTable(w, fmt.Sprintf("%s — %s (%d runs/point)", fr.Figure.ID, fr.Figure.Title, fr.Runs), header, rows)
}

// WriteCSV renders the figure as CSV (density plus one mean and one CI
// column per protocol).
func (fr *FigureResult) WriteCSV(w io.Writer) error {
	names := fr.ProtocolNames()
	cols := []string{"density"}
	for _, n := range names {
		cols = append(cols, n+"_mean", n+"_ci95")
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for i, p := range fr.Points {
		row := []string{fmt.Sprintf("%g", fr.Figure.Degrees[i])}
		for _, n := range names {
			mean, ci := fr.series(p, n)
			row = append(row, fmt.Sprintf("%.6f", mean), fmt.Sprintf("%.6f", ci))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// WriteDeliveryTable renders per-protocol delivery ratios, used by the
// loop-fix ablation.
func (fr *FigureResult) WriteDeliveryTable(w io.Writer) error {
	names := fr.ProtocolNames()
	if _, err := fmt.Fprintf(w, "# %s — delivery ratio\n", fr.Figure.ID); err != nil {
		return err
	}
	for i, p := range fr.Points {
		parts := []string{fmt.Sprintf("density %g:", fr.Figure.Degrees[i])}
		for _, n := range names {
			pp := p.Protocols[n]
			parts = append(parts, fmt.Sprintf("%s=%.4f", n, pp.Delivery.Mean()))
		}
		if _, err := fmt.Fprintln(w, strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	return nil
}

func pad(cells []string) []string {
	const width = 12
	out := make([]string, len(cells))
	for i, c := range cells {
		if len(c) < width {
			c = c + strings.Repeat(" ", width-len(c))
		}
		out[i] = c
	}
	return out
}

// SortedProtocolNames lists the protocols of a point result in stable
// order, for callers iterating a bare PointResult.
func (p *PointResult) SortedProtocolNames() []string {
	names := make([]string, 0, len(p.Protocols))
	for n := range p.Protocols {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
