package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Barrier is a reusable counter barrier for a fixed set of n participants,
// built for the sharded simulation engine's window loop: crossings are
// frequent (one per handful of microseconds of useful work) and the
// participant count is small, so a generation-counting spin with a Gosched
// fallback beats channel- or cond-based rendezvous by an order of magnitude.
// A waiter that has yielded yieldPhase times without the gate opening has
// lost its peer's core to someone else - another process, more participants
// than cores - and parks on a condition variable the last arriver signals,
// so the core it was burning goes to whoever the peer is waiting behind.
//
// The atomics also carry the ordering obligation: everything a participant
// wrote before Await is visible to every participant after the matching
// return (each arrival is observed by the last arriver's counter increment,
// whose generation bump is in turn observed by every waiter's load).
type Barrier struct {
	n       int32
	arrived atomic.Int32
	gen     atomic.Uint32

	// The parked slow path. parked counts waiters between announcing that
	// they will sleep and waking; mu guards the sleep itself.
	parked atomic.Int32
	mu     sync.Mutex
	opened sync.Cond
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(n int) *Barrier {
	b := &Barrier{n: int32(n)}
	b.opened.L = &b.mu
	return b
}

const (
	// spinPhase is how many loads a waiter makes before it first yields:
	// the common case of near-simultaneous arrival ends inside it.
	spinPhase = 64
	// yieldPhase is how many times a waiter then yields before it parks.
	// On its own core a peer is a fraction of a window's work behind and
	// arrives within a few hundred yields, so parking that early pays a
	// futex round trip on ordinary windows (+45 % wall at 200); a peer that
	// has lost its core is a kernel time slice away, and every further
	// yield keeps the core from whoever it waits behind (two 2-shard
	// processes on 2 cores: 1.2-1.3x two serial ones at 1000, 1.6x at
	// 5000, 2.1-2.8x never parking). Read off EXPERIMENTS.md, "The
	// barrier's yield bound".
	yieldPhase = 1000
)

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
		if b.parked.Load() > 0 {
			b.mu.Lock()
			b.opened.Broadcast()
			b.mu.Unlock()
		}
		return 0
	}
	// Brief spin for the common case of near-simultaneous arrival, then
	// yield: with fewer cores than participants (or a single core) the
	// missing arrivals can only happen if this goroutine gets off the CPU.
	var slow time.Time
	for spin := 0; b.gen.Load() == g; spin++ {
		switch {
		case spin < spinPhase:
		case spin == spinPhase:
			slow = time.Now()
		case spin < spinPhase+yieldPhase:
			runtime.Gosched()
		default:
			b.park(g)
		}
	}
	if slow.IsZero() {
		return 0
	}
	return time.Since(slow)
}

// park sleeps until the crossing of generation g completes. No wake-up is
// lost: the waiter raises parked and then re-reads gen, the last arriver
// bumps gen and then reads parked, so one of the two sees the other; and a
// last arriver that saw parked > 0 cannot broadcast before the waiter is
// inside Wait, because the waiter holds mu from the re-read until then.
func (b *Barrier) park(g uint32) {
	b.mu.Lock()
	b.parked.Add(1)
	for b.gen.Load() == g {
		b.opened.Wait()
	}
	b.parked.Add(-1)
	b.mu.Unlock()
}
