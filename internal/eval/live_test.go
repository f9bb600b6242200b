package eval

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// foldLog is a fake sweep point: the labels of the cells folded into it,
// in fold order.
type foldLog struct{ got []string }

// fakeSweep is a simulation-free grid whose cells fail where fail says so.
func fakeSweep(points, runs, cols, workers int, fail func(pt, run, col int) error) liveSweep[*foldLog] {
	return liveSweep[*foldLog]{
		points: points, runs: runs, cols: cols, workers: workers,
		point: func(int, int) *foldLog { return &foldLog{} },
		cell: func(pt, run, col int) (func(*foldLog), error) {
			if err := fail(pt, run, col); err != nil {
				return nil, err
			}
			label := fmt.Sprintf("p%d r%d c%d", pt, run, col)
			return func(l *foldLog) { l.got = append(l.got, label) }, nil
		},
	}
}

func never(int, int, int) error { return nil }

// TestLiveSweepFoldOrder holds the cell loop's determinism contract: at
// any worker count every cell folds into its own point, runs in ascending
// order.
func TestLiveSweepFoldOrder(t *testing.T) {
	var want [][]*foldLog
	for _, workers := range []int{1, 2, 8} {
		rows, err := fakeSweep(3, 4, 2, workers, never).run(context.Background())
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if workers == 1 {
			want = rows
			if got := rows[1][0].got; !reflect.DeepEqual(got, []string{"p1 r0 c0", "p1 r1 c0", "p1 r2 c0", "p1 r3 c0"}) {
				t.Fatalf("point 1, column 0 folded %v", got)
			}
			continue
		}
		if !reflect.DeepEqual(rows, want) {
			t.Errorf("workers %d folded differently from workers 1", workers)
		}
	}
}

// TestLiveSweepDoneHook: the hook sees every point exactly once, already
// folded in run order, and its calls never overlap at any worker count.
func TestLiveSweepDoneHook(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var inFlight atomic.Int32
		calls := make([]int, 3)
		s := fakeSweep(3, 4, 2, workers, never)
		s.done = func(pt int, row []*foldLog) {
			if inFlight.Add(1) != 1 {
				t.Errorf("workers %d: overlapping done calls", workers)
			}
			calls[pt]++
			want := []string{fmt.Sprintf("p%d r0 c1", pt), fmt.Sprintf("p%d r1 c1", pt), fmt.Sprintf("p%d r2 c1", pt), fmt.Sprintf("p%d r3 c1", pt)}
			if !reflect.DeepEqual(row[1].got, want) {
				t.Errorf("workers %d: point %d handed over with %v", workers, pt, row[1].got)
			}
			inFlight.Add(-1)
		}
		if _, err := s.run(context.Background()); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if !reflect.DeepEqual(calls, []int{1, 1, 1}) {
			t.Errorf("workers %d: done calls per point = %v", workers, calls)
		}
	}
}

// TestLiveSweepLowestError: with several failing cells the error returned
// is the first in (point, run) order, whatever the worker count. On several
// workers the higher failure (p2 r0, first column) is made to happen while
// the lower (point, run) sits between its columns: a job below a failure
// must still run its remaining columns.
func TestLiveSweepLowestError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		higherFailed := make(chan struct{})
		fail := func(pt, run, col int) error {
			switch {
			case pt == 2 && run == 0:
				if workers > 1 {
					close(higherFailed)
				}
				return fmt.Errorf("cell p%d r%d c%d", pt, run, col)
			case pt == 1 && run == 1 && col == 0 && workers > 1:
				<-higherFailed
				time.Sleep(20 * time.Millisecond) // let the failure cancel its siblings
			case pt == 1 && run == 1 && col == 1:
				return fmt.Errorf("cell p%d r%d c%d", pt, run, col)
			}
			return nil
		}
		_, err := fakeSweep(3, 2, 2, workers, fail).run(context.Background())
		if err == nil || err.Error() != "cell p1 r1 c1" {
			t.Errorf("workers %d: err = %v, want cell p1 r1 c1", workers, err)
		}
	}
}

// TestLiveSweepCancellation: a caller that cancels mid-sweep gets
// ctx.Err(), not a cell's error, and no further cell starts; a sweep
// cancelled up front runs no cell at all.
func TestLiveSweepCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cells := 0
		s := fakeSweep(4, 4, 3, workers, func(pt, run, col int) error {
			if pt == 0 && run == 0 && col == 1 {
				cancel()
			}
			return nil
		})
		inner := s.cell
		s.cell = func(pt, run, col int) (func(*foldLog), error) {
			if workers == 1 {
				cells++
			}
			return inner(pt, run, col)
		}
		if _, err := s.run(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("workers %d: err = %v, want context.Canceled", workers, err)
		}
		if workers == 1 && cells != 2 {
			t.Errorf("serial sweep ran %d cells after cancelling at the second", cells)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := fakeSweep(2, 2, 2, 1, never)
	s.cell = func(int, int, int) (func(*foldLog), error) {
		t.Fatal("a cancelled sweep ran a cell")
		return nil, nil
	}
	if _, err := s.run(ctx); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestLiveSweepBudget holds the worker-budget rule: min(jobs, workers)
// (point, run) jobs run at once, and a serial sweep runs one at a time.
func TestLiveSweepBudget(t *testing.T) {
	for _, c := range []struct {
		name                  string
		points, runs, workers int
		serial                bool
		peak                  int
	}{
		{"1 job at 8 workers", 1, 1, 8, false, 1},
		{"3 jobs at 2 workers", 1, 3, 2, false, 2},
		{"3 jobs at 8 workers", 3, 1, 8, false, 3},
		{"serial grid at 4 workers", 3, 2, 4, true, 1},
	} {
		var (
			mu           sync.Mutex
			cells        int
			active, peak int
		)
		s := fakeSweep(c.points, c.runs, 1, c.workers, never)
		s.serial = c.serial
		if got := s.budget(); got != c.peak {
			t.Errorf("%s: budget %d, want %d", c.name, got, c.peak)
		}
		inner := s.cell
		s.cell = func(pt, run, col int) (func(*foldLog), error) {
			mu.Lock()
			cells++
			active++
			peak = max(peak, active)
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			active--
			mu.Unlock()
			return inner(pt, run, col)
		}
		if _, err := s.run(context.Background()); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cells != c.points*c.runs {
			t.Errorf("%s: %d cells ran, want %d", c.name, cells, c.points*c.runs)
		}
		if peak > c.peak {
			t.Errorf("%s: %d cells ran at once, want at most %d", c.name, peak, c.peak)
		}
	}
}
