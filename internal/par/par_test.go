package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// One worker runs every job on the caller's goroutine, in index order.
func TestForOneWorkerRunsInline(t *testing.T) {
	before := runtime.NumGoroutine()
	var order []int
	err := For(context.Background(), 5, 1, func(_ context.Context, i int) error {
		if g := runtime.NumGoroutine(); g != before {
			t.Errorf("job %d: %d goroutines, %d before For", i, g, before)
		}
		order = append(order, i) // unsynchronised: -race fails if not inline
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Fatalf("jobs ran in order %v", order)
	}
}

// Every job runs exactly once at any worker count.
func TestForRunsEveryJob(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		const n = 50
		var hits [n]atomic.Int32
		if err := For(context.Background(), n, workers, func(_ context.Context, i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("workers %d: job %d ran %d times", workers, i, h)
			}
		}
	}
}

// The error returned is the lowest failing index's, whatever the
// interleaving, as long as the jobs below it run to completion.
func TestForLowestFailingIndex(t *testing.T) {
	for _, workers := range []int{1, 8} {
		for rep := 0; rep < 20; rep++ {
			err := For(context.Background(), 64, workers, func(_ context.Context, i int) error {
				if i%7 == 3 {
					return fmt.Errorf("job %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "job 3" {
				t.Fatalf("workers %d: got %v, want the error of job 3", workers, err)
			}
		}
	}
}

// A failure stops dispatch: jobs far above it never start.
func TestForFailureStopsDispatch(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var started atomic.Int32
		boom := errors.New("boom")
		err := For(context.Background(), 10000, workers, func(ctx context.Context, i int) error {
			started.Add(1)
			if i == 0 {
				return boom
			}
			<-ctx.Done()
			return ctx.Err()
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers %d: got %v, want boom", workers, err)
		}
		if s := started.Load(); s > int32(workers) {
			t.Fatalf("workers %d: %d jobs started after the first failed", workers, s)
		}
	}
}

// A caller that cancels stops dispatch, and its ctx.Err() is returned even
// when jobs report errors of their own.
func TestForCallerCancellation(t *testing.T) {
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int32
		err := For(ctx, 10000, workers, func(ctx context.Context, i int) error {
			if started.Add(1) == 2 {
				cancel()
				return errors.New("job failed after the cancel")
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: got %v, want context.Canceled", workers, err)
		}
		if s := started.Load(); s > 2+int32(workers) {
			t.Fatalf("workers %d: %d jobs started, dispatch did not stop", workers, s)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := For(ctx, 4, 1, func(context.Context, int) error { ran = true; return nil }); !errors.Is(err, context.Canceled) || ran {
		t.Fatalf("pre-cancelled context: err %v, ran %v", err, ran)
	}
}

// A sibling that returns the cancellation the first failure caused is not
// reported in its place, even at a lower index.
func TestForSiblingCancellationIsNotAFailure(t *testing.T) {
	boom := errors.New("boom")
	waiting := make(chan struct{})
	err := For(context.Background(), 2, 2, func(ctx context.Context, i int) error {
		if i == 0 {
			close(waiting)
			<-ctx.Done()
			return fmt.Errorf("job 0 gave up: %w", ctx.Err())
		}
		<-waiting
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom from job 1", err)
	}
}
