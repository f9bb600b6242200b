package eval

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"qolsr/internal/geom"
	"qolsr/internal/graph"
)

// foldLog is a fake sweep point: the labels of the cells folded into it,
// in fold order.
type foldLog struct{ got []string }

// fakeSweep is a simulation-free grid whose field at (pt, run) has
// nodes(pt, run) nodes and whose cells fail where fail says so.
func fakeSweep(points, runs, cols, workers int, nodes func(pt, run int) int, fail func(pt, run, col int) error) liveSweep[*foldLog] {
	return liveSweep[*foldLog]{
		points: points, runs: runs, cols: cols, workers: workers, minNodes: 2,
		point: func(int, int) *foldLog { return &foldLog{} },
		field: func(pt, run int) (liveField, error) {
			return liveField{g: graph.New(nodes(pt, run))}, nil
		},
		cell: func(_ liveField, pt, run, col int) (func(*foldLog), error) {
			if err := fail(pt, run, col); err != nil {
				return nil, err
			}
			label := fmt.Sprintf("p%d r%d c%d", pt, run, col)
			return func(l *foldLog) { l.got = append(l.got, label) }, nil
		},
	}
}

func fourNodes(int, int) int    { return 4 }
func never(int, int, int) error { return nil }

// TestLiveSweepFoldOrder holds the cell loop's determinism contract: at
// any worker count every cell folds into its own point, runs in ascending
// order, and a field below minNodes contributes nothing.
func TestLiveSweepFoldOrder(t *testing.T) {
	nodes := func(pt, run int) int {
		if pt == 1 && run == 2 {
			return 1 // skipped
		}
		return 4
	}
	var want [][]*foldLog
	for _, workers := range []int{1, 2, 8} {
		rows, err := fakeSweep(3, 4, 2, workers, nodes, never).run(context.Background())
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if workers == 1 {
			want = rows
			if got := rows[1][0].got; !reflect.DeepEqual(got, []string{"p1 r0 c0", "p1 r1 c0", "p1 r3 c0"}) {
				t.Fatalf("point 1, column 0 folded %v", got)
			}
			continue
		}
		if !reflect.DeepEqual(rows, want) {
			t.Errorf("workers %d folded differently from workers 1", workers)
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
		_, err := fakeSweep(3, 2, 2, workers, fourNodes, fail).run(context.Background())
		if err == nil || err.Error() != "cell p1 r1 c1" {
			t.Errorf("workers %d: err = %v, want cell p1 r1 c1", workers, err)
		}
	}
}

// TestLiveSweepCancellation: a caller that cancels mid-sweep gets
// ctx.Err(), not a cell's error, and no further cell starts; a sweep
// cancelled up front draws no field at all.
func TestLiveSweepCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cells := 0
		s := fakeSweep(4, 4, 3, workers, fourNodes, func(pt, run, col int) error {
			if pt == 0 && run == 0 && col == 1 {
				cancel()
			}
			return nil
		})
		inner := s.cell
		s.cell = func(f liveField, pt, run, col int) (func(*foldLog), error) {
			if workers == 1 {
				cells++
			}
			return inner(f, pt, run, col)
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
	s := fakeSweep(2, 2, 2, 1, fourNodes, never)
	s.field = func(int, int) (liveField, error) {
		t.Fatal("a cancelled sweep drew a field")
		return liveField{}, nil
	}
	if _, err := s.run(ctx); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestLiveSweepsWorkerDeterminism renders each density- or loss-axis
// sweep serially and on four workers: the tables (and O1's JSON) must be
// byte-identical.
func TestLiveSweepsWorkerDeterminism(t *testing.T) {
	field := geom.Field{Width: 300, Height: 300}
	render := map[string]func(workers int) (string, error){
		"A4": func(workers int) (string, error) {
			res, err := RunControlSweep(context.Background(), ControlSweepOptions{
				Degrees: []float64{6, 9}, Runs: 2, SimTime: 10 * time.Second, Field: field,
			}, workers)
			return table(res, err)
		},
		"A7": func(workers int) (string, error) {
			res, err := RunLossSweep(context.Background(), LossSweepOptions{
				Losses: []float64{0, 0.2}, Runs: 2, SimTime: 10 * time.Second, Field: field, Degree: 8,
			}, workers)
			return table(res, err)
		},
		"A8": func(workers int) (string, error) {
			res, err := RunLoadSweep(context.Background(), LoadSweepOptions{
				Loads: []float64{1, 4}, Flows: 4, Runs: 2, SimTime: 5 * time.Second, Field: field, Degree: 8,
			}, workers)
			return table(res, err)
		},
		"O1": func(workers int) (string, error) {
			res, err := RunOverheadSweep(context.Background(), OverheadSweepOptions{
				Degrees: []float64{8}, Runs: 2, SimTime: 10 * time.Second, Field: field,
			}, workers)
			if err != nil {
				return "", err
			}
			var b bytes.Buffer
			if err := res.EncodeJSON(&b); err != nil {
				return "", err
			}
			tab, err := table(res, nil)
			return tab + b.String(), err
		},
	}
	for _, name := range []string{"A4", "A7", "A8", "O1"} {
		serial, err := render[name](1)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		parallel, err := render[name](4)
		if err != nil {
			t.Fatalf("%s on 4 workers: %v", name, err)
		}
		if serial != parallel {
			t.Errorf("%s differs between 1 and 4 workers:\n%s\nvs\n%s", name, serial, parallel)
		}
	}
}

// table renders a sweep result's table, passing a sweep error through.
func table(res interface{ WriteTable(io.Writer) error }, err error) (string, error) {
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	err = res.WriteTable(&b)
	return b.String(), err
}
