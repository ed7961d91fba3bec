package parallel

import (
	"runtime"
	"sync/atomic"
)

// engineCores is the process-wide count of running simulation-engine
// goroutines: every network.RunSharded registers the engines it runs and
// releases them when it returns. It is what lets the engine choose its own
// shard count without asking its callers: a lone run sees idle cores and
// takes them, while the runs of a busy worker pool or of concurrent service
// jobs each see the others and stay on one engine.
var engineCores atomic.Int32

// UseCores registers n engine goroutines that run whatever else is running:
// a caller-forced shard count. Pair with ReleaseCores(n).
func UseCores(n int) { engineCores.Add(int32(n)) }

// ClaimCores registers between 1 and want engine goroutines - one for the
// caller, which runs regardless, plus as many extras as there are cores
// (GOMAXPROCS) no registered engine is using - and returns the number
// registered. It never blocks: a run that arrives while the cores are taken
// gets 1 and proceeds. Pair with ReleaseCores of the returned count.
func ClaimCores(want int) int {
	for {
		used := engineCores.Load()
		n := max(1, min(int32(want), int32(runtime.GOMAXPROCS(0))-used))
		if engineCores.CompareAndSwap(used, used+n) {
			return int(n)
		}
	}
}

// ReleaseCores returns n registered engine goroutines.
func ReleaseCores(n int) { engineCores.Add(int32(-n)) }

// CoresInUse reports the engine goroutines currently registered.
func CoresInUse() int { return int(engineCores.Load()) }
