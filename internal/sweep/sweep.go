// Package sweep runs families of all-to-all experiments: message-size
// sweeps (the paper's figures plot throughput against message size) and
// partition sweeps (percent of peak across machine shapes).
package sweep

import (
	"context"
	"fmt"

	"alltoall/internal/collective"
	"alltoall/internal/parallel"
)

// Point is one sweep sample.
type Point struct {
	MsgBytes int
	Result   collective.Result
}

// MessageSizes returns a doubling ladder of message sizes in [lo, hi],
// always including both endpoints.
func MessageSizes(lo, hi int) []int {
	if lo < 1 {
		lo = 1
	}
	var out []int
	for m := lo; m < hi; m *= 2 {
		out = append(out, m)
	}
	if len(out) == 0 || out[len(out)-1] != hi {
		return append(out, hi)
	}
	return out
}

// Messages runs one strategy across the given message sizes, reusing opts
// for everything else. Points run in parallel across all cores; see
// MessagesN for worker control.
func Messages(strat collective.Strategy, opts collective.Options, sizes []int) ([]Point, error) {
	return MessagesN(context.Background(), 0, strat, opts, sizes)
}

// MessagesN is Messages with explicit context and worker count (<= 0 means
// GOMAXPROCS). Each run is seeded independently of scheduling, and every
// worker carries its own network cache, so results are identical at any
// worker count and are returned in size order.
func MessagesN(ctx context.Context, workers int, strat collective.Strategy, opts collective.Options, sizes []int) ([]Point, error) {
	return parallel.MapLocal(ctx, workers, sizes,
		func() *collective.NetCache { return &collective.NetCache{} },
		func(_ context.Context, cache *collective.NetCache, _ int, m int) (Point, error) {
			o := opts
			o.MsgBytes = m
			o.Cache = cache
			res, err := collective.RunContext(ctx, strat, o)
			if err != nil {
				return Point{}, fmt.Errorf("sweep: %s at m=%d: %w", strat, m, err)
			}
			return Point{MsgBytes: m, Result: res}, nil
		})
}

// Crossover returns the smallest swept message size at which strategy b's
// completion time meets or beats strategy a's, or -1 if it never does. Both
// series must be over identical sizes.
func Crossover(a, b []Point) int {
	for i := range a {
		if i < len(b) && b[i].MsgBytes == a[i].MsgBytes && a[i].Result.Time <= b[i].Result.Time {
			return a[i].MsgBytes
		}
	}
	return -1
}
