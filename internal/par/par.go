// Package par runs indexed jobs on a bounded set of goroutines. It is the
// one parallel loop below the public API, and it has one fan-out: the
// sweeps' cell loop (every paper figure, live-stack ablation and scenario
// replicate set runs on it). Each simulation inside a cell runs on one
// goroutine, except that a traffic engine folds its delivery statistics on
// a worker of its own when GOMAXPROCS ≥ 2 (internal/traffic/fold.go).
package par

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs job(ctx, i) for every i in [0, n) on min(workers, n) goroutines
// (workers <= 0 means GOMAXPROCS) and returns once every started job has
// returned. Jobs start in ascending index order.
//
// With one worker the jobs run inline on the caller's goroutine, in index
// order, and For starts no goroutine. With more, the first failure cancels
// the context the other jobs see and no further job starts; a job that then
// returns that cancellation is not counted as a failure.
//
// For returns the caller's ctx.Err() when the caller cancelled, otherwise
// the error of the lowest failing index, or nil. A failure therefore does
// not depend on the worker count as long as jobs below it run to completion.
func For(ctx context.Context, n, workers int, job func(ctx context.Context, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := job(ctx, i); err != nil {
				if cerr := ctx.Err(); cerr != nil {
					return cerr
				}
				return err
			}
		}
		return ctx.Err()
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for runCtx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				err := job(runCtx, i)
				if err == nil {
					continue
				}
				if cerr := runCtx.Err(); cerr != nil && errors.Is(err, cerr) {
					continue // a sibling's or the caller's cancellation
				}
				mu.Lock()
				if i < firstIdx {
					firstIdx, firstErr = i, err
				}
				mu.Unlock()
				cancel()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}
