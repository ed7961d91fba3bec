package parallel

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Barrier is a reusable counter barrier for a fixed set of n participants,
// built for the sharded simulation engine's window loop: crossings are
// frequent (one per handful of microseconds of useful work) and the
// participant count is small, so a generation-counting spin with a Gosched
// fallback beats channel- or cond-based rendezvous by an order of magnitude
// and still behaves on oversubscribed (even single-core) machines.
//
// The atomics also carry the ordering obligation: everything a participant
// wrote before Await is visible to every participant after the matching
// return (each arrival is observed by the last arriver's counter increment,
// whose generation bump is in turn observed by every waiter's load).
type Barrier struct {
	n       int32
	arrived atomic.Int32
	gen     atomic.Uint32
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(n int) *Barrier {
	return &Barrier{n: int32(n)}
}

// Await blocks until all n participants have called it, then releases them
// all. The barrier is immediately reusable for the next crossing. It returns
// how long the caller waited after leaving the spin phase, and 0 for a
// crossing that finished inside it: the clock is read only on that slow path,
// so near-simultaneous arrivals (every window of a balanced small run) cost
// nothing extra, and the long waits an imbalanced partition produces are
// measured in full but for the first few dozen loads.
func (b *Barrier) Await() time.Duration {
	g := b.gen.Load()
	if b.arrived.Add(1) == b.n {
		// Last arriver: reset the count for the next crossing before
		// opening the gate (waiters only watch gen, so the order is safe).
		b.arrived.Store(0)
		b.gen.Add(1)
		return 0
	}
	// Brief spin for the common case of near-simultaneous arrival, then
	// yield: with fewer cores than participants (or a single core) the
	// missing arrivals can only happen if this goroutine gets off the CPU.
	const spinPhase = 64
	var slow time.Time
	for spin := 0; b.gen.Load() == g; spin++ {
		if spin >= spinPhase {
			if spin == spinPhase {
				slow = time.Now()
			}
			runtime.Gosched()
		}
	}
	if slow.IsZero() {
		return 0
	}
	return time.Since(slow)
}
