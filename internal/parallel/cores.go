package parallel

import (
	"context"
	"runtime"
	"sync/atomic"
)

// engineCores is the process-wide count of cores simulations occupy: every
// network.RunSharded registers the engines it runs, and every pool worker
// (MapLocal's, aaserve's) the core it runs on, for as long as each lives. It
// is what lets the engine choose its own shard count without asking its
// callers: a lone run sees idle cores and takes them, while a run on a full
// pool, or beside concurrent jobs, sees them taken and stays on one engine.
var engineCores atomic.Int32

// UseCores registers n goroutines that run whatever else is running: a
// pool worker, or a caller-forced shard count. Pair with ReleaseCores(n).
func UseCores(n int) { engineCores.Add(int32(n)) }

// ClaimCores returns between 1 and want engines for one run: held (0 or 1,
// see HeldCores) is its pool worker's core, which the worker registered; the
// others are cores (GOMAXPROCS) nothing registered is using. It registers
// the engines beyond held and never blocks: a run that arrives while the
// cores are taken gets 1 and proceeds. Pair with ReleaseCores(n - held).
func ClaimCores(want, held int) int {
	for {
		used := engineCores.Load()
		n := max(1, min(int32(want), int32(runtime.GOMAXPROCS(0))-used+int32(held)))
		if engineCores.CompareAndSwap(used, used+n-int32(held)) {
			return int(n)
		}
	}
}

// ReleaseCores returns n registered goroutines.
func ReleaseCores(n int) { engineCores.Add(int32(-n)) }

// CoresInUse reports the goroutines currently registered.
func CoresInUse() int { return int(engineCores.Load()) }

// heldCore keys WithCore's mark: the cores a run's goroutine already holds.
type heldCore struct{}

// WithCore marks ctx as handed to runs by a pool worker holding a core.
func WithCore(ctx context.Context) context.Context { return context.WithValue(ctx, heldCore{}, 1) }

// HeldCores is the cores a run under ctx already holds: 1 on a pool worker
// (WithCore), else 0.
func HeldCores(ctx context.Context) int {
	n, _ := ctx.Value(heldCore{}).(int)
	return n
}
