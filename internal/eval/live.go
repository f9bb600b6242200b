package eval

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"time"

	"qolsr/internal/geom"
	"qolsr/internal/graph"
	"qolsr/internal/metric"
	"qolsr/internal/netgen"
	"qolsr/internal/par"
)

// Every sweep shares one shape: a grid of axis points × runs × columns,
// where every column of one (point, run) works on the same field. The paper
// figures and their ablations (RunFigures), the live-stack sweeps — A4
// (control), A7 (loss), A8 (load), O1 (overhead) — and S1 (scale) all run on
// the one cell loop below. This file holds that loop, the live-stack
// sweeps' defaults step and the table writer.

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

// liveSweep is the one cell loop of every sweep. P is the sweep's
// per-cell point, whose accumulators the folds feed.
type liveSweep[P any] struct {
	points, runs, cols int
	// workers bounds how many (point, run) jobs run at once (0 =
	// GOMAXPROCS, 1 = in order on the caller's goroutine).
	workers int
	// minNodes skips runs whose field came out smaller.
	minNodes int
	// point makes the accumulator of one (point, column) cell.
	point func(pt, col int) P
	// field draws what every column of one (point, run) shares; nil means
	// the sweep has no shared field.
	field func(pt, run int) (liveField, error)
	// cell simulates one column on the field and returns the step that
	// folds its measurements into the cell's point.
	cell func(f liveField, pt, run, col int) (fold func(P), err error)
	// done, when set, receives each point's row as soon as it is folded.
	// Calls never overlap.
	done func(pt int, row []P)
}

// run executes the grid. Every (point, run) is one par.For job that draws
// its field and simulates its columns in order; when a point's last run
// lands its fold steps are applied in (run, column) order, so the result is
// bit-identical at every worker count. ctx is checked before every cell:
// cancelling it returns ctx.Err(), and otherwise the error returned is the
// first in (point, run, column) order. A job checks the caller's ctx, not
// the one par.For hands it, so a failure never cuts short the jobs below it
// and the lowest failure wins.
func (s liveSweep[P]) run(ctx context.Context) ([][]P, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rows := make([][]P, s.points)
	left := make([]int, s.points)
	for pt := range rows {
		rows[pt] = make([]P, s.cols)
		for col := range rows[pt] {
			rows[pt][col] = s.point(pt, col)
		}
		left[pt] = s.runs
	}
	folds := make([][]func(P), s.points*s.runs)
	var mu sync.Mutex
	err := par.For(ctx, len(folds), s.workers, func(_ context.Context, j int) error {
		pt := j / s.runs
		fs, err := s.cells(ctx, pt, j%s.runs)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		folds[j] = fs
		if left[pt]--; left[pt] > 0 {
			return nil
		}
		for _, fs := range folds[pt*s.runs : (pt+1)*s.runs] {
			for col, fold := range fs {
				fold(rows[pt][col])
			}
		}
		clear(folds[pt*s.runs : (pt+1)*s.runs])
		if s.done != nil {
			s.done(pt, rows[pt])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// cells draws one (point, run) field and simulates its columns in order,
// returning their fold steps; a field below minNodes yields none.
func (s liveSweep[P]) cells(ctx context.Context, pt, run int) ([]func(P), error) {
	var f liveField
	if s.field != nil {
		var err error
		if f, err = s.field(pt, run); err != nil || f.g.N() < s.minNodes {
			return nil, err
		}
	}
	fs := make([]func(P), s.cols)
	for col := range fs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		if fs[col], err = s.cell(f, pt, run, col); err != nil {
			return nil, err
		}
	}
	return fs, nil
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
