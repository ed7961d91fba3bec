// Package parallel provides a bounded worker pool for fanning independent
// simulation runs across cores. Every experiment in this repository is a set
// of deterministic-per-seed simulations with no shared mutable state, so the
// pool's only jobs are bounding concurrency, preserving the input order of
// results, and aggregating errors.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a -j style worker-count flag: values <= 0 select
// GOMAXPROCS (one worker per available core).
func Workers(j int) int {
	if j > 0 {
		return j
	}
	return runtime.GOMAXPROCS(0)
}

// MapLocal runs fn over every item on up to Workers(workers) goroutines and
// returns the results in input order. mk runs once on each worker goroutine
// and its value is handed to every fn call that worker executes: use it to
// carry expensive reusable scratch (e.g. a simulation network recycled
// across sweep points) without sharing it between goroutines. Each worker
// holds a registered core while it lives and hands fn a context WithCore.
// The first error cancels the context passed to fn calls, running and
// pending, and stops workers from claiming further items; errors from items
// that were already running are aggregated in index order. Items skipped
// because of cancellation leave zero values in the result slice.
func MapLocal[T, R, L any](ctx context.Context, workers int, items []T, mk func() L, fn func(ctx context.Context, local L, i int, item T) (R, error)) ([]R, error) {
	n := len(items)
	results := make([]R, n)
	if n == 0 {
		return results, ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			UseCores(1)
			defer ReleaseCores(1)
			wctx, local := WithCore(ctx), mk()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				r, err := fn(wctx, local, i, items[i])
				if err != nil {
					errs[i] = err
					cancel()
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	var joined []error
	for i, err := range errs {
		if err != nil {
			if len(items) > 1 {
				err = fmt.Errorf("item %d: %w", i, err)
			}
			joined = append(joined, err)
		}
	}
	if len(joined) > 0 {
		return results, errors.Join(joined...)
	}
	return results, ctx.Err()
}
