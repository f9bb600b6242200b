package eval

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"slices"
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

// QuantityNames lists every reportable quantity's string form.
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
	for _, f := range PaperFigures() {
		ids = append(ids, f.ID)
	}
	for _, f := range Ablations() {
		ids = append(ids, f.ID)
	}
	return ids
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

// FigureResult is a regenerated figure: one PointResult per density.
type FigureResult struct {
	Figure Figure
	Points []*PointResult
	// Runs is the per-point run count used.
	Runs int
}

// runFigures evaluates the figures at o.Runs topologies per density point
// under o.Seed and returns one assembled result per figure, in order. The
// grid's axis is the figures' distinct density points: two figures share a
// point at equal degree when they agree on the metric, on the protocols
// (compared in full, not by name) and on whether directed delivery is
// measured, so Figs. 6 and 8 are one bandwidth sweep and Figs. 7 and 9 one
// delay sweep. A shared point is simulated once and its *PointResult is
// read-only in every figure that references it.
//
// Up to o.Workers (point, run) topologies run at once; the result is
// bit-identical at every setting. When a point completes, done (if set) is
// called once for every (figure, point index) that references it, after
// the point is stored in the figure's result; calls never overlap, and jobs
// landing meanwhile wait for the call, so done must not block. Cancelling
// ctx returns ctx.Err(); otherwise the error returned is that of the first
// failing point in figure and density order. A non-positive run count, a
// figure without density points and an invalid deployment are rejected
// before any topology is drawn.
func runFigures(ctx context.Context, figs []Figure, o Options, done func(fr *FigureResult, fi, pi int)) ([]*FigureResult, error) {
	runs := o.Runs
	if runs <= 0 {
		return nil, fmt.Errorf("eval: runs must be positive, got %d", runs)
	}
	type ref struct{ fi, pi int }
	var (
		specs []pointSpec
		refs  [][]ref
	)
	results := make([]*FigureResult, len(figs))
	for fi, f := range figs {
		if len(f.Degrees) == 0 {
			return nil, fmt.Errorf("eval: figure %s has no density points", f.ID)
		}
		results[fi] = &FigureResult{Figure: f, Runs: runs, Points: make([]*PointResult, len(f.Degrees))}
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
	_, err := pointSweep(specs, runs, o.Workers, func(pt int, row []*PointResult) {
		for _, r := range refs[pt] {
			results[r.fi].Points[r.pi] = row[0]
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

// series extracts the figure's quantity for one protocol at one point.
func (fr *FigureResult) series(p *PointResult, name string) (mean, ci float64) {
	pp := p.Protocols[name]
	if pp == nil {
		return 0, 0
	}
	acc := pp.Series(fr.Figure.Quantity)
	if acc == nil {
		return 0, 0
	}
	return acc.Mean(), acc.CI95()
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

// Result is a completed figure sweep (Stream, Run): one assembled result
// per requested figure, in request order.
type Result struct {
	Figures []*FigureResult
}

// jsonStat is one accumulated series in machine-readable form.
type jsonStat struct {
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
	N    int     `json:"n"`
}

// jsonPoint is one density point.
type jsonPoint struct {
	Degree      float64                        `json:"degree"`
	Nodes       float64                        `json:"nodes"`
	SkippedRuns int                            `json:"skipped_runs,omitempty"`
	Protocols   map[string]map[string]jsonStat `json:"protocols"`
}

// jsonFigure is one assembled figure.
type jsonFigure struct {
	ID        string      `json:"id"`
	Title     string      `json:"title"`
	Metric    string      `json:"metric"`
	Quantity  string      `json:"quantity"`
	Runs      int         `json:"runs"`
	Protocols []string    `json:"protocols"`
	Points    []jsonPoint `json:"points"`
}

// EncodeJSON writes the sweep as an indented JSON document, schema
// "qolsr-sweep/v1" (bump it on breaking changes to the shape): per figure,
// per density point, per protocol, the figure's quantity series as
// {mean, ci95, n}.
func (r *Result) EncodeJSON(w io.Writer) error {
	doc := struct {
		Schema  string       `json:"schema"`
		Figures []jsonFigure `json:"figures"`
	}{Schema: "qolsr-sweep/v1"}
	for _, fr := range r.Figures {
		jf := jsonFigure{
			ID:        fr.Figure.ID,
			Title:     fr.Figure.Title,
			Metric:    fr.Figure.Metric.Name(),
			Quantity:  string(fr.Figure.Quantity),
			Runs:      fr.Runs,
			Protocols: fr.ProtocolNames(),
		}
		for pi, p := range fr.Points {
			jp := jsonPoint{
				Degree:      fr.Figure.Degrees[pi],
				Nodes:       p.Nodes.Mean(),
				SkippedRuns: p.SkippedRuns,
				Protocols:   make(map[string]map[string]jsonStat, len(p.Protocols)),
			}
			for _, name := range jf.Protocols {
				pp := p.Protocols[name]
				if pp == nil {
					continue
				}
				acc := pp.Series(fr.Figure.Quantity)
				if acc == nil {
					return fmt.Errorf("eval: unknown quantity %q", fr.Figure.Quantity)
				}
				jp.Protocols[name] = map[string]jsonStat{jf.Quantity: {Mean: acc.Mean(), CI95: acc.CI95(), N: acc.N()}}
			}
			jf.Points = append(jf.Points, jp)
		}
		doc.Figures = append(doc.Figures, jf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// EncodeCSV writes the sweep in long form, one row per (figure, density,
// protocol) with the figure's quantity — the shape plotting tools group and
// pivot directly.
func (r *Result) EncodeCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "figure,density,protocol,quantity,mean,ci95,n"); err != nil {
		return err
	}
	for _, fr := range r.Figures {
		q := fr.Figure.Quantity
		for pi, p := range fr.Points {
			for _, name := range fr.ProtocolNames() {
				pp := p.Protocols[name]
				if pp == nil {
					continue
				}
				acc := pp.Series(q)
				if acc == nil {
					return fmt.Errorf("eval: unknown quantity %q", q)
				}
				row := []string{
					fr.Figure.ID,
					fmt.Sprintf("%g", fr.Figure.Degrees[pi]),
					name,
					string(q),
					fmt.Sprintf("%.6f", acc.Mean()),
					fmt.Sprintf("%.6f", acc.CI95()),
					fmt.Sprintf("%d", acc.N()),
				}
				if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// WriteTables renders every figure as the aligned text table the paper
// plots, separated by blank lines.
func (r *Result) WriteTables(w io.Writer) error {
	for i, fr := range r.Figures {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if err := fr.WriteTable(w); err != nil {
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
