package eval

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"qolsr/internal/geom"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/netgen"
	"qolsr/internal/par"
)

// The live-stack grid sweeps — A4 (control), A7 (loss), A8 (load) and O1
// (overhead) — share one shape: a grid of axis points × runs × columns,
// where every column of one (point, run) simulates on the same field. This
// file holds what they share: the defaults step, the cell loop and the table
// writer. S1 (scale) times one simulation at a time in a loop of its own and
// shares only writeTable.

// liveDefaults is the defaults step every grid sweep starts with. It fills
// the knobs they all have — run count, virtual time, base seed and
// deployment field — where the caller left them unset.
func liveDefaults(runs *int, simTime *time.Duration, seed *int64, field *geom.Field, defRuns int, defSim time.Duration) {
	defaultTo(runs, defRuns)
	defaultTo(simTime, defSim)
	if *seed == 0 {
		*seed = 1
	}
	if *field == (geom.Field{}) {
		*field = geom.Field{Width: 600, Height: 600}
	}
}

// defaultTo sets a knob left at or below zero to d.
func defaultTo[T cmp.Ordered](v *T, d T) {
	var zero T
	if *v <= zero {
		*v = d
	}
}

// liveField is what every column of one (point, run) shares: the seed the
// field was drawn from, its graph and, for A8, the flow endpoints.
type liveField struct {
	seed  int64
	g     *graph.Graph
	pairs [][2]int32
}

// liveRadius is the communication radius of every live-stack sweep.
const liveRadius = 100

// deployField draws the run's Poisson field at the given degree, weighted
// on the bandwidth channel — the metric every live-stack sweep's QoS
// selection runs under.
func deployField(seed int64, field geom.Field, degree float64, run int) (liveField, error) {
	fieldSeed := RunSeed(seed, degree, run)
	dep := geom.Deployment{Field: field, Radius: liveRadius, Degree: degree}
	g, err := netgen.Build(dep, "bandwidth", metric.DefaultInterval(), rand.New(rand.NewSource(fieldSeed)))
	return liveField{seed: fieldSeed, g: g}, err
}

// liveSweep is the one cell loop of the live-stack sweeps. P is the
// sweep's per-cell point, whose accumulators the folds feed.
type liveSweep[P any] struct {
	points, runs, cols int
	// workers bounds how many (point, run) fields simulate at once
	// (0 = GOMAXPROCS, 1 = in order on the caller's goroutine).
	workers int
	// minNodes skips runs whose field came out smaller.
	minNodes int
	// point makes the accumulator of one (point, column) cell.
	point func(pt, col int) P
	// field draws what every column of one (point, run) shares.
	field func(pt, run int) (liveField, error)
	// cell simulates one column on the field and returns the step that
	// folds its measurements into the cell's point.
	cell func(f liveField, pt, run, col int) (fold func(P), err error)
}

// run executes the grid. Every (point, run) is one par.For job that draws
// its field and simulates its columns in order; the fold steps are applied
// afterwards in (point, run, column) order, so the result is bit-identical
// at every worker count. ctx is checked before every cell: cancelling it
// returns ctx.Err(), and otherwise the error returned is the first in that
// order. A job checks the caller's ctx, not the one par.For hands it, so a
// failure never cuts short the jobs below it and the lowest failure wins.
func (s liveSweep[P]) run(ctx context.Context) ([][]P, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	folds := make([][]func(P), s.points*s.runs)
	err := par.For(ctx, len(folds), s.workers, func(_ context.Context, j int) error {
		pt, run := j/s.runs, j%s.runs
		f, err := s.field(pt, run)
		if err != nil || f.g.N() < s.minNodes {
			return err
		}
		fs := make([]func(P), s.cols)
		for col := range fs {
			if err := ctx.Err(); err != nil {
				return err
			}
			if fs[col], err = s.cell(f, pt, run, col); err != nil {
				return err
			}
		}
		folds[j] = fs
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([][]P, s.points)
	for pt := range rows {
		rows[pt] = make([]P, s.cols)
		for col := range rows[pt] {
			rows[pt][col] = s.point(pt, col)
		}
	}
	for j, fs := range folds {
		for col, fold := range fs {
			fold(rows[j/s.runs][col])
		}
	}
	return rows, nil
}

// column is one cell of a column group in a live-sweep table: a header
// suffix, a format and the value it prints.
type column[P any] struct {
	name   string
	format string
	value  func(P) float64
}

// writeGrid is the one table writer of the live-stack sweeps: a "# title"
// line, then a header of the axis name and every group's columns, then one
// row per axis point.
func writeGrid[P any](w io.Writer, title, axisName string, axis []string, groups []string, rows [][]P, cols []column[P]) error {
	header := []string{axisName}
	for _, g := range groups {
		for _, c := range cols {
			header = append(header, g+c.name)
		}
	}
	lines := make([][]string, len(rows))
	for i, row := range rows {
		lines[i] = []string{axis[i]}
		for _, p := range row {
			for _, c := range cols {
				lines[i] = append(lines[i], fmt.Sprintf(c.format, c.value(p)))
			}
		}
	}
	return writeTable(w, title, header, lines)
}

// writeTable writes a "# title" line and space-aligned rows under a header.
func writeTable(w io.Writer, title string, header []string, rows [][]string) error {
	if _, err := fmt.Fprintf(w, "# %s\n", title); err != nil {
		return err
	}
	for _, cells := range append([][]string{header}, rows...) {
		if _, err := fmt.Fprintln(w, strings.Join(pad(cells), "  ")); err != nil {
			return err
		}
	}
	return nil
}

// axisLabels formats an axis for the table's first column.
func axisLabels(axis []float64) []string {
	out := make([]string, len(axis))
	for i, v := range axis {
		out[i] = fmt.Sprint(v)
	}
	return out
}
