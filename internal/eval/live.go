package eval

import (
	"context"
	"runtime"
	"sync"

	"qolsr/internal/par"
)

// Every sweep shares one shape: a grid of axis points × runs × columns.
// The paper figures and their ablations (Stream), the live-stack grids —
// A4 (control), A7 (loss), A8 (load), O1 (overhead) and S1 (scale),
// grid.go — and a scenario's replicate runs (StreamScenario) all run on the
// one cell loop below. The figures, ablations and grids land in one result
// shape (Sweep, result.go).

// liveSweep is the one cell loop of every sweep. P is the sweep's
// per-cell point, whose accumulators the folds feed.
type liveSweep[P any] struct {
	points, runs, cols int
	// workers bounds the (point, run) jobs that run at once (0 =
	// GOMAXPROCS); see budget.
	workers int
	// serial runs one (point, run) at a time, so each cell has a wall time
	// of its own (S1).
	serial bool
	// point makes the accumulator of one (point, column) cell.
	point func(pt, col int) P
	// cell simulates one column of one (point, run) and returns the step
	// that folds its measurements into the cell's point.
	cell func(pt, run, col int) (fold func(P), err error)
	// done, when set, receives each point's row as soon as it is folded.
	// Calls never overlap.
	done func(pt int, row []P)
}

// run executes the grid. Every (point, run) is one par.For job that
// simulates its columns in order; when a point's last run
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
	err := par.For(ctx, len(folds), s.budget(), func(_ context.Context, j int) error {
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

// budget returns how many (point, run) jobs run at once: 1 when serial (1
// = in order on the caller's goroutine), else the worker budget capped by
// the job count.
func (s liveSweep[P]) budget() int {
	if s.serial {
		return 1
	}
	workers := s.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(s.points*s.runs, workers))
}

// cells simulates the columns of one (point, run) in order, returning
// their fold steps.
func (s liveSweep[P]) cells(ctx context.Context, pt, run int) ([]func(P), error) {
	fs := make([]func(P), s.cols)
	for col := range fs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		if fs[col], err = s.cell(pt, run, col); err != nil {
			return nil, err
		}
	}
	return fs, nil
}
