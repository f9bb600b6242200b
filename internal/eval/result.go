package eval

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"qolsr/internal/stats"
)

// Sweep is one completed sweep — a paper figure, a static ablation or a
// live grid: its identity, its axis points, its columns (the compared
// protocols, or a grid's columns), its quantities, and one accumulator per
// (point, column, quantity), folded in run order.
type Sweep struct {
	// ID names the sweep: a figure or ablation ID, or a live grid's
	// -ablation name.
	ID string
	// Title is the table's heading.
	Title string
	// Axis names the x axis; Points are its values.
	Axis   string
	Points []float64
	// Metric is a figure's QoS metric; a live grid has none.
	Metric string
	// Columns are the compared protocols, or the grid's columns.
	Columns []string
	// Runs is the run count per point, Seed the base seed.
	Runs int
	Seed int64

	quantities []quantity
	// cells is indexed [point][column][quantity]. Figures that share a
	// density point share its row.
	cells [][][]stats.Accumulator
}

// quantity is one measured series of a sweep. An empty format keeps it out
// of the table (JSON and CSV carry every quantity), and ci adds its ±95%
// beside it. A live grid reads a cell's value off the scenario run with
// read; a NaN reading adds no sample.
type quantity struct {
	name   Quantity
	format string
	ci     bool
	read   func(c cellResult) float64
}

// Cell returns quantity q's accumulator in column col at the pt-th axis
// point, or nil when the sweep has no such column or quantity.
func (s *Sweep) Cell(pt int, col string, q Quantity) *stats.Accumulator {
	c := slices.Index(s.Columns, col)
	i := slices.IndexFunc(s.quantities, func(x quantity) bool { return x.name == q })
	if c < 0 || i < 0 {
		return nil
	}
	return &s.cells[pt][c][i]
}

// Result is a completed run — figures and static ablations (Stream, Run)
// or a live grid (RunLiveGrid): one sweep per request, in request order.
type Result struct {
	Sweeps []*Sweep
}

// stat is one accumulator as the JSON and CSV forms carry it. JSON has no
// NaN, so an empty mean or an undefined deviation encodes as 0.
type stat struct {
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
	Std  float64 `json:"std"`
	N    int     `json:"n"`
}

func statOf(a *stats.Accumulator) stat {
	fin := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return x
	}
	return stat{fin(a.Mean()), fin(a.CI95()), fin(a.Std()), a.N()}
}

// EncodeJSON writes the result as one indented "qolsr-sweep/v2" document
// (bump it on breaking changes to the shape): per sweep its identity, axis,
// columns and quantity names, then per axis point, per column, every
// quantity's {mean, ci95, std, n}.
func (r *Result) EncodeJSON(w io.Writer) error {
	type point struct {
		X       float64                      `json:"x"`
		Columns map[string]map[Quantity]stat `json:"columns"`
	}
	type sweep struct {
		ID         string     `json:"id"`
		Title      string     `json:"title"`
		Axis       string     `json:"axis"`
		Metric     string     `json:"metric,omitempty"`
		Runs       int        `json:"runs"`
		Seed       int64      `json:"seed"`
		Columns    []string   `json:"columns"`
		Quantities []Quantity `json:"quantities"`
		Points     []point    `json:"points"`
	}
	doc := struct {
		Schema string  `json:"schema"`
		Sweeps []sweep `json:"sweeps"`
	}{Schema: "qolsr-sweep/v2"}
	for _, s := range r.Sweeps {
		js := sweep{ID: s.ID, Title: s.Title, Axis: s.Axis, Metric: s.Metric, Runs: s.Runs, Seed: s.Seed, Columns: s.Columns}
		for _, q := range s.quantities {
			js.Quantities = append(js.Quantities, q.name)
		}
		for pt, x := range s.Points {
			p := point{X: x, Columns: make(map[string]map[Quantity]stat, len(s.Columns))}
			for c, col := range s.Columns {
				p.Columns[col] = make(map[Quantity]stat, len(s.quantities))
				for i, q := range s.quantities {
					p.Columns[col][q.name] = statOf(&s.cells[pt][c][i])
				}
			}
			js.Points = append(js.Points, p)
		}
		doc.Sweeps = append(doc.Sweeps, js)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// EncodeCSV writes the result in long form, one row per (sweep, axis
// point, column, quantity) — the shape plotting tools group and pivot
// directly — carrying the JSON document's numbers in their shortest exact
// form.
func (r *Result) EncodeCSV(w io.Writer) error {
	num := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	// A failed write sticks in the csv.Writer's buffer: Error reports it
	// after Flush, so the per-row errors need no check.
	cw := csv.NewWriter(w)
	cw.Write([]string{"sweep", "axis", "x", "column", "quantity", "mean", "ci95", "std", "n"})
	for _, s := range r.Sweeps {
		for pt, x := range s.Points {
			for c, col := range s.Columns {
				for i, q := range s.quantities {
					st := statOf(&s.cells[pt][c][i])
					cw.Write([]string{s.ID, s.Axis, num(x), col, string(q.name), num(st.Mean), num(st.CI95), num(st.Std), strconv.Itoa(st.N)})
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTables renders every sweep as an aligned text table, separated by
// blank lines.
func (r *Result) WriteTables(w io.Writer) error {
	tables := make([]string, len(r.Sweeps))
	for i, s := range r.Sweeps {
		tables[i] = s.table()
	}
	_, err := io.WriteString(w, strings.Join(tables, "\n"))
	return err
}

// table renders the sweep: a "# title (runs/point)" line, a header of the
// axis name and every column's tabled quantities, and one row of means per
// axis point. A quantity with its ±95% is headed by the column's name, its
// interval ("-" below two samples) by "±95%"; any other by column_quantity (the
// quantity alone for S1's one unnamed column). Every cell is padded to its
// column's widest cell, at least 12 runes.
func (s *Sweep) table() string {
	header := []string{s.Axis}
	for _, col := range s.Columns {
		for _, q := range s.quantities {
			switch {
			case q.ci:
				header = append(header, col, "±95%")
			case q.format != "":
				header = append(header, strings.TrimPrefix(col+"_"+string(q.name), "_"))
			}
		}
	}
	lines := [][]string{header}
	for pt, x := range s.Points {
		row := []string{fmt.Sprint(x)}
		for c := range s.Columns {
			for i, q := range s.quantities {
				if a := &s.cells[pt][c][i]; q.format != "" {
					row = append(row, fmt.Sprintf(q.format, a.Mean()))
					if ci := "-"; q.ci {
						if a.N() > 1 { // one sample has no interval: 0 would claim perfect confidence
							ci = fmt.Sprintf(q.format, a.CI95())
						}
						row = append(row, ci)
					}
				}
			}
		}
		lines = append(lines, row)
	}
	width := make([]int, len(header))
	for _, cells := range lines {
		for i, c := range cells {
			width[i] = max(width[i], 12, utf8.RuneCountInString(c))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s (%d runs/point)\n", s.Title, s.Runs)
	for _, cells := range lines {
		for i, c := range cells {
			cells[i] = c + strings.Repeat(" ", width[i]-utf8.RuneCountInString(c))
		}
		b.WriteString(strings.Join(cells, "  ") + "\n")
	}
	return b.String()
}
