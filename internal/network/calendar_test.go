package network

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"alltoall/internal/torus"
)

// drainCompare pops both queues dry, requiring the identical event sequence
// (and agreeing top()/len() at every step).
func drainCompare(t *testing.T, cal *calendarQueue, ref *eventHeap, ctx string) {
	t.Helper()
	step := 0
	for ref.len() > 0 {
		if cal.len() != ref.len() {
			t.Fatalf("%s step %d: len %d, reference %d", ctx, step, cal.len(), ref.len())
		}
		if got, want := cal.top(), ref.top(); got != want {
			t.Fatalf("%s step %d: top %+v, reference %+v", ctx, step, got, want)
		}
		if got, want := cal.pop(), ref.pop(); got != want {
			t.Fatalf("%s step %d: pop %+v, reference %+v", ctx, step, got, want)
		}
		step++
	}
	if cal.len() != 0 {
		t.Fatalf("%s: reference drained but calendar holds %d events", ctx, cal.len())
	}
}

// TestCalendarQueueMatchesHeap is the differential property test: random
// event multisets - same-tick key ties, exact duplicates, beyond-horizon
// pushes - interleaved with pops must produce exactly the reference heap's
// pop sequence. Pushes respect the engine's contract (never behind the last
// popped time), which is the only discipline the calendar queue assumes. One
// push in four is preceded by a top(): the sharded engine peeks the minimum
// and then pushes mailbox events before it pops, and a bucket ordered for the
// peek must stay ordered under those pushes.
func TestCalendarQueueMatchesHeap(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var cal calendarQueue
		var ref eventHeap
		horizon := int64(64) << rng.Intn(6) // 64..2048
		cal.init(horizon)
		low := int64(0) // engine clock: max popped time so far
		ops := 200 + rng.Intn(800)
		for i := 0; i < ops; i++ {
			if rng.Intn(3) != 0 || ref.len() == 0 { // push-biased mix
				delta := int64(rng.Intn(64)) // mostly near-now, dense ties
				switch rng.Intn(10) {
				case 0: // just inside / straddling the horizon edge
					delta = horizon - 2 + int64(rng.Intn(5))
				case 1: // far beyond the horizon (overflow path)
					delta = horizon * int64(1+rng.Intn(20))
				}
				ev := mkEvent(low+delta, int32(rng.Intn(8)), int32(rng.Intn(4)), uint8(rng.Intn(4)))
				if ref.len() > 0 && rng.Intn(4) == 0 {
					if got, want := cal.top(), ref.top(); got != want {
						t.Fatalf("trial %d op %d: top before push %+v, reference %+v", trial, i, got, want)
					}
				}
				cal.push(ev)
				ref.push(ev)
				if rng.Intn(8) == 0 { // exact duplicate (legal: identical events)
					cal.push(ev)
					ref.push(ev)
				}
			} else {
				if got, want := cal.top(), ref.top(); got != want {
					t.Fatalf("trial %d op %d: top %+v, reference %+v", trial, i, got, want)
				}
				got, want := cal.pop(), ref.pop()
				if got != want {
					t.Fatalf("trial %d op %d: pop %+v, reference %+v", trial, i, got, want)
				}
				low = want.t
			}
		}
		drainCompare(t, &cal, &ref, fmt.Sprintf("trial %d", trial))
	}
	for trial := 0; trial < 20; trial++ {
		burstTrial(t, trial)
	}
}

// burstTrial is a differential trial of bursty ticks, the load that makes
// buckets borrow storage: each round pushes more keys than a bucket keeps
// onto one tick among scattered pushes, pops into that tick, then peeks and
// pushes more of the same tick into the partly popped front bucket, which
// grows again in borrowed storage. The rounds run until the clock has
// wrapped the ring at least twice. Every bucket must end the trial holding
// at most its kept slice.
func burstTrial(t *testing.T, trial int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(1000 + trial)))
	var cal calendarQueue
	var ref eventHeap
	horizon := int64(64) << rng.Intn(3) // 64..256
	cal.init(horizon)
	ctx := fmt.Sprintf("burst trial %d", trial)
	push := func(e event) { cal.push(e); ref.push(e) }
	pop := func() int64 {
		if got, want := cal.top(), ref.top(); got != want {
			t.Fatalf("%s: top %+v, reference %+v", ctx, got, want)
		}
		got, want := cal.pop(), ref.pop()
		if got != want {
			t.Fatalf("%s: pop %+v, reference %+v", ctx, got, want)
		}
		return want.t
	}
	key := func(tick int64) event {
		return mkEvent(tick, int32(rng.Intn(512)), int32(rng.Intn(4)), uint8(rng.Intn(4)))
	}
	low, borrowedFront := int64(0), 0
	for low < 3*horizon {
		burst := low + 1 + rng.Int63n(horizon-1)
		for i := bucketKeys + rng.Intn(3*bucketKeys); i > 0; i-- {
			push(key(burst))
			if rng.Intn(4) == 0 {
				push(key(low + rng.Int63n(horizon)))
			}
		}
		for ref.top().t < burst {
			low = pop()
		}
		for i := rng.Intn(bucketKeys); i > 0; i-- {
			low = pop()
		}
		if cap(cal.buckets[burst&cal.mask]) > bucketKeys {
			borrowedFront++
		}
		for i := 2 * bucketKeys; i > 0; i-- {
			if got, want := cal.top(), ref.top(); got != want {
				t.Fatalf("%s: top before push %+v, reference %+v", ctx, got, want)
			}
			push(key(low))
		}
	}
	drainCompare(t, &cal, &ref, ctx)
	if borrowedFront == 0 {
		t.Fatalf("%s: no peek-then-push landed in a borrowed front bucket: the trial is vacuous", ctx)
	}
	for i, b := range cal.buckets {
		if cap(b) > bucketKeys {
			t.Fatalf("%s: drained bucket %d still holds %d keys of borrowed storage", ctx, i, cap(b))
		}
	}
}

// TestCalendarQueueOverflowResurfaces pins the subtle overflow interaction:
// an event pushed beyond the horizon must win the pop race the moment the
// clock advances to it, even though it never migrates into the ring and
// later ring pushes carry larger times.
func TestCalendarQueueOverflowResurfaces(t *testing.T) {
	var cal calendarQueue
	var ref eventHeap
	cal.init(64)
	push := func(e event) { cal.push(e); ref.push(e) }
	push(mkEvent(1000, 3, 0, evService)) // beyond horizon: overflow
	push(mkEvent(10, 1, 0, evArrive))
	// Drain to t=10, then schedule ring events past the overflow event's
	// time: the overflow event must still pop first at t=1000.
	if got, want := cal.pop(), ref.pop(); got != want {
		t.Fatalf("pop %+v, want %+v", got, want)
	}
	push(mkEvent(1001, 0, 0, evArrive)) // still beyond horizon from base=10
	if got, want := cal.pop(), ref.pop(); got.t != 1000 || got != want {
		t.Fatalf("overflow event did not resurface: got %+v, want %+v", got, want)
	}
	// base is now 1000; 1001 is within the ring horizon, and a same-tick tie
	// against a fresh ring push must still order by key.
	push(mkEvent(1001, 0, 0, evService))
	drainCompare(t, &cal, &ref, "overflow tail")
}

// TestCalendarQueuePeekThenPush pins the access pattern that a lazily ordered
// bucket gets wrong first: top() orders the front bucket and caches its tail,
// then same-tick pushes land in that bucket before the pop. A push that sorts
// after the cached minimum must not displace it from the tail, and one that
// sorts before it must become the next pop.
func TestCalendarQueuePeekThenPush(t *testing.T) {
	var cal calendarQueue
	var ref eventHeap
	cal.init(64)
	push := func(e event) { cal.push(e); ref.push(e) }
	push(mkEvent(5, 3, 0, evArrive))
	push(mkEvent(5, 2, 0, evArrive))
	push(mkEvent(9, 0, 0, evArrive))
	for _, e := range []event{
		mkEvent(5, 1, 0, evCredit),  // equal tick, smaller key: the new minimum
		mkEvent(9, 4, 0, evArrive),  // a later, still unordered bucket
		mkEvent(5, 7, 0, evService), // equal tick, larger key: popped straight after
	} {
		if got, want := cal.top(), ref.top(); got != want {
			t.Fatalf("top %+v, reference %+v", got, want)
		}
		push(e)
	}
	drainCompare(t, &cal, &ref, "peek-then-push")
}

// TestCalendarQueueOverflowBeforeCursor pins the cached minimum a pop leaves
// behind: after a pop from a bucket that still holds keys, an overflow event
// of the same tick whose key sorts before the bucket's next key must pop
// first.
func TestCalendarQueueOverflowBeforeCursor(t *testing.T) {
	var cal calendarQueue
	var ref eventHeap
	cal.init(64)
	push := func(e event) { cal.push(e); ref.push(e) }
	push(mkEvent(10, 0, 0, evArrive))
	push(mkEvent(70, 2, 0, evArrive)) // a horizon past base 0: overflow
	if got, want := cal.pop(), ref.pop(); got != want {
		t.Fatalf("pop %+v, want %+v", got, want)
	}
	push(mkEvent(70, 1, 0, evArrive)) // within the horizon of base 10: bucketed
	push(mkEvent(70, 3, 0, evArrive))
	drainCompare(t, &cal, &ref, "overflow before cursor")
}

// TestCalendarQueuePushBelowCursor pins same-tick pushes into a partly
// popped front bucket whose keys sort before keys already popped from it:
// they land at the head cursor, next to pop, not in the popped prefix.
func TestCalendarQueuePushBelowCursor(t *testing.T) {
	var cal calendarQueue
	var ref eventHeap
	cal.init(64)
	push := func(e event) { cal.push(e); ref.push(e) }
	for _, node := range []int32{1, 3, 5} {
		push(mkEvent(5, node, 0, evArrive))
	}
	if got, want := cal.pop(), ref.pop(); got != want {
		t.Fatalf("pop %+v, want %+v", got, want)
	}
	push(mkEvent(5, 0, 0, evArrive)) // sorts before the popped node 1
	if got, want := cal.top(), ref.top(); got != want {
		t.Fatalf("top %+v, reference %+v", got, want)
	}
	push(mkEvent(5, 2, 0, evArrive)) // between the popped key and the head
	drainCompare(t, &cal, &ref, "push below cursor")
}

// FuzzEventQueue drives the calendar queue and the reference heap from raw
// fuzz bytes: two bytes per operation (op selector + time delta), with the
// engine's monotone-push discipline enforced by construction. Bit 7 of a push
// op peeks (top) first - the sharded engine's top, push, pop sequence.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x40, 0xff, 0x80, 0x00, 0xc1, 0x7f})
	f.Add([]byte{0x13, 0x00, 0x13, 0x00, 0x23, 0x00, 0x33, 0x00}) // dense ties
	f.Add([]byte{0x07, 0xff, 0x07, 0xff, 0x47, 0xff, 0x87, 0xff}) // far pushes
	// Peek, then push an equal-tick event with a smaller key (node 0 after
	// node 1); peek, then one with a larger key (node 3); pop everything.
	f.Add([]byte{0x10, 0x05, 0x80, 0x05, 0xb0, 0x05, 0x03, 0x00, 0x03, 0x00, 0x03, 0x00})
	// A burst: more keys on tick 5 than a bucket keeps, so its bucket
	// borrows storage; pop ten of them, then peek and push as many again
	// onto the same tick, growing the partly popped front bucket; then a
	// far push and pops past it, so the ring wraps with the storage given
	// back.
	var burst []byte
	pushOp := func(i int) byte { return byte(i%8<<4 | i%3) } // node i%8, kind i%3: never a pop
	for i := 0; i < bucketKeys+16; i++ {
		burst = append(burst, pushOp(i), 0x05)
	}
	for i := 0; i < 10; i++ {
		burst = append(burst, 0x03, 0x00)
	}
	for i := 0; i < bucketKeys+16; i++ {
		burst = append(burst, 0x80|pushOp(i), 0x00)
	}
	burst = append(burst, 0x40, 0xff)
	for i := 0; i < 2*bucketKeys+24; i++ {
		burst = append(burst, 0x03, 0x00)
	}
	f.Add(burst)
	f.Fuzz(func(t *testing.T, data []byte) {
		var cal calendarQueue
		var ref eventHeap
		cal.init(256)
		low := int64(0)
		for i := 0; i+1 < len(data); i += 2 {
			op, d := data[i], int64(data[i+1])
			if op&0x3 == 3 && ref.len() > 0 {
				if got, want := cal.top(), ref.top(); got != want {
					t.Fatalf("op %d: top %+v, reference %+v", i, got, want)
				}
				got, want := cal.pop(), ref.pop()
				if got != want {
					t.Fatalf("op %d: pop %+v, reference %+v", i, got, want)
				}
				low = want.t
				continue
			}
			delta := d
			if op&0x40 != 0 {
				delta *= 31 // reach past the 256-tick horizon
			}
			ev := mkEvent(low+delta, int32(op>>4&7), int32(op>>2&3), op&3)
			if op&0x80 != 0 && ref.len() > 0 {
				if got, want := cal.top(), ref.top(); got != want {
					t.Fatalf("op %d: top before push %+v, reference %+v", i, got, want)
				}
			}
			cal.push(ev)
			ref.push(ev)
		}
		for ref.len() > 0 {
			if got, want := cal.pop(), ref.pop(); got != want {
				t.Fatalf("drain: pop %+v, reference %+v", got, want)
			}
		}
		if cal.len() != 0 {
			t.Fatalf("calendar holds %d events after reference drained", cal.len())
		}
	})
}

// TestCalendarQueueReset pins reset-and-reuse: a drained-or-abandoned queue
// must come back empty with a zeroed clock floor, and a bucket abandoned
// while it held borrowed storage must give it back, so the next run's burst
// borrows that storage again instead of allocating.
func TestCalendarQueueReset(t *testing.T) {
	var cal calendarQueue
	cal.init(128)
	for i := 0; i < 100; i++ {
		cal.push(mkEvent(int64(i*7), int32(i&3), 0, evArrive))
	}
	for i := 0; i < 3*bucketKeys; i++ { // a burst on tick 120
		cal.push(mkEvent(120, int32(i), 0, evArrive))
	}
	for i := 0; i < 10; i++ {
		cal.pop()
	}
	held := cal.buckets[120]
	if cap(held) <= bucketKeys {
		t.Fatalf("burst bucket holds %d keys of storage, want borrowed (> %d)", cap(held), bucketKeys)
	}
	cal.reset()
	if cal.len() != 0 {
		t.Fatalf("len %d after reset", cal.len())
	}
	for i, b := range cal.buckets {
		if cap(b) > bucketKeys {
			t.Fatalf("bucket %d kept %d keys of borrowed storage across reset", i, cap(b))
		}
	}
	// Reuse from t=0: the ring must accept fresh events in every bucket, and
	// as large a burst on another tick must end in the storage given back.
	var ref eventHeap
	push := func(ev event) { cal.push(ev); ref.push(ev) }
	for i := 0; i < 100; i++ {
		push(mkEvent(int64(i%130), int32(i&3), 0, evService))
	}
	for i := 0; i < 3*bucketKeys; i++ {
		push(mkEvent(116, int32(i), 0, evArrive))
	}
	if got := cal.buckets[116]; unsafe.SliceData(got) != unsafe.SliceData(held) {
		t.Errorf("the burst after reset grew into fresh storage (%d keys), not the storage reset gave back", cap(got))
	}
	drainCompare(t, &cal, &ref, "post-reset")
}

func TestCalendarHorizon(t *testing.T) {
	h := calendarHorizon(DefaultParams())
	if h&(h-1) != 0 {
		t.Fatalf("horizon %d is not a power of two", h)
	}
	if h < 64 || h > 1<<16 {
		t.Fatalf("horizon %d outside clamp bounds", h)
	}
	// Must exceed every routine scheduling delta, and by less than 2x: a
	// longer ring is memory cycled through for nothing.
	par := DefaultParams()
	for _, delta := range []int64{
		MaxPacketBytes + par.RouterDelay, par.CreditDelay, par.EscapeDelay, par.CPUCost(MaxPacketBytes),
	} {
		if h <= delta {
			t.Fatalf("horizon %d does not cover routine delta %d", h, delta)
		}
	}
	if h != 512 {
		t.Fatalf("horizon %d at default parameters, want 512 (largest routine delta 271)", h)
	}
	// The clamp must hold under absurd parameter sweeps.
	par.EscapeDelay = 1 << 40
	if h := calendarHorizon(par); h > 1<<16 {
		t.Fatalf("horizon %d escaped the upper clamp", h)
	}
}

// benchEventQueue is the classic hold-model queue benchmark with the
// engine's real event mix: a warm backlog sized like a large partition's,
// then pop-one/push-one at realistic scheduling deltas (granule arrivals,
// credit returns, full-packet arrivals, link frees, CPU completions, and a
// rare far-future pacing kick that exercises the calendar's overflow path).
func benchEventQueue(b *testing.B, q interface {
	push(event)
	pop() event
}) {
	b.ReportAllocs()
	deltas := [16]int64{47, 47, 47, 47, 15, 15, 15, 271, 271, 256, 192, 64, 79, 32, 128, 5000}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1<<16; i++ {
		q.push(mkEvent(int64(rng.Intn(1<<12)), int32(rng.Intn(1<<10)), int32(rng.Intn(4)), uint8(rng.Intn(4))))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.pop()
		e.t += deltas[i&15]
		q.push(e)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// The heap row is the calendar's reference: the structure it replaced, kept
// as its overflow store.
func BenchmarkEventQueueHeap(b *testing.B) { benchEventQueue(b, &eventHeap{}) }
func BenchmarkEventQueueCalendar(b *testing.B) {
	var q calendarQueue
	q.init(calendarHorizon(DefaultParams()))
	benchEventQueue(b, &q)
}

// BenchmarkNetworkRunLarge times the engine on a table2-shaped (asymmetric,
// Y-dominant) partition - the regime where the event backlog is deepest -
// serial and at 2 and 4 shards. Every row simulates the identical run, so
// the events/s ratios are the intra-run speedup.
func BenchmarkNetworkRunLarge(b *testing.B) {
	shape := torus.New(8, 16, 8)
	p := shape.P()
	mkSrcs := func() []Source {
		srcs := make([]Source, p)
		for n := 0; n < p; n++ {
			srcs[n] = &allToAllSource{self: int32(n), p: int32(p), size: 256}
		}
		return srcs
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			nw, err := New(shape, DefaultParams(), mkSrcs(), countOnly{})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := nw.RunSharded(RunSpec{MaxTime: 1 << 42, Shards: shards}); err != nil {
				b.Fatal(err)
			}
			var events int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := nw.Reset(mkSrcs(), countOnly{}); err != nil {
					b.Fatal(err)
				}
				if _, _, err := nw.RunSharded(RunSpec{MaxTime: 1 << 42, Shards: shards}); err != nil {
					b.Fatal(err)
				}
				events += nw.Stats().Events()
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
