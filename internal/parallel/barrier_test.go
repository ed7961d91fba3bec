package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBarrierPhases checks that no participant enters phase k+1 before all
// have finished phase k, across many reuse cycles.
func TestBarrierPhases(t *testing.T) {
	const workers = 7
	const phases = 200
	b := NewBarrier(workers)
	var done [phases]atomic.Int32
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for p := 0; p < phases; p++ {
				done[p].Add(1)
				b.Await()
				if got := done[p].Load(); got != workers {
					errs <- "crossed barrier before all workers finished the phase"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestBarrierPublishes checks the memory-ordering contract: a write made
// before Await is visible to another participant after it, without any
// additional synchronization.
func TestBarrierPublishes(t *testing.T) {
	b := NewBarrier(2)
	var plain [1000]int // deliberately non-atomic
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range plain {
			plain[i] = i + 1
		}
		b.Await()
	}()
	b.Await()
	for i := range plain {
		if plain[i] != i+1 {
			t.Fatalf("plain[%d] = %d after barrier", i, plain[i])
		}
	}
	wg.Wait()
}

// TestBarrierTimesSlowWaits checks what Await reports: nothing for the last
// arriver (it never waits), and the wait itself for a participant held well
// past the spin phase by a late peer.
func TestBarrierTimesSlowWaits(t *testing.T) {
	if d := NewBarrier(1).Await(); d != 0 {
		t.Errorf("sole participant waited %v", d)
	}
	const hold = 20 * time.Millisecond
	b := NewBarrier(2)
	late := make(chan time.Duration)
	go func() {
		time.Sleep(hold)
		late <- b.Await()
	}()
	if d := b.Await(); d < hold/2 {
		t.Errorf("waiter held ~%v reported %v", hold, d)
	}
	if d := <-late; d != 0 {
		t.Errorf("last arriver reported a wait of %v", d)
	}
}

func BenchmarkBarrier(bm *testing.B) {
	const workers = 4
	b := NewBarrier(workers)
	n := bm.N // every participant crosses exactly n times
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				b.Await()
			}
		}()
	}
	bm.ResetTimer()
	for i := 0; i < n; i++ {
		b.Await()
	}
	wg.Wait()
}

// TestBarrierParkedCrossings drives the parked slow path: more participants
// than GOMAXPROCS cross 10^5 times, and on every 250th crossing participant 0
// holds back until all the others are asleep on the condition variable, so
// the last arrival really is the only thing that can wake them. A lost
// wake-up leaves the run hung (the watchdog names it); a premature one
// breaks the phase check.
func TestBarrierParkedCrossings(t *testing.T) {
	workers := runtime.GOMAXPROCS(0) + 3
	const phases = 100_000
	const holdEvery = 250
	b := NewBarrier(workers)
	done := make([]atomic.Int32, phases)
	var early atomic.Int32
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for p := 0; p < phases; p++ {
				if w == 0 && p%holdEvery == 0 {
					for b.parked.Load() != int32(workers-1) {
						runtime.Gosched()
					}
				}
				done[p].Add(1)
				b.Await()
				if done[p].Load() != int32(workers) {
					early.Add(1)
				}
			}
		}()
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(2 * time.Minute):
		t.Fatalf("barrier hung with %d of %d waiters parked: a wake-up was lost", b.parked.Load(), workers-1)
	}
	if n := early.Load(); n != 0 {
		t.Errorf("%d crossings returned before every participant had arrived", n)
	}
	if n := b.parked.Load(); n != 0 {
		t.Errorf("%d waiters still counted as parked after the last crossing", n)
	}
}
