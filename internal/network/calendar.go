package network

import "math/bits"

// Bounded-horizon calendar queue.
//
// Every event the engine schedules lands within a small, parameter-bounded
// distance of the current clock: arrivals at now + size + RouterDelay (or
// now + PacketGranule + RouterDelay under cut-through), credit returns at
// now + CreditDelay, link-free wakeups at now + size, escape-maturity
// wakeups at most EscapeDelay ahead, and ordinary CPU completions at
// CPUCost(MaxPacketBytes). That bounded lookahead - the same property that
// powers the sharded engine's conservative windows - is the textbook
// precondition for a calendar queue: a ring of per-tick buckets spanning the
// horizon gives O(1) amortized push/pop where a heap pays O(log n) sifts
// over multi-million-event backlogs. The rare event beyond the horizon
// (strategy ExtraCPU charges, source pacing waits) overflows into a small
// reference heap that is consulted on every pop, so correctness never
// depends on the horizon being large enough - only throughput does.
//
// The pop sequence is the unique minimum of the pushed multiset under the
// strict (t, node, kind, arg) order of less(), exactly as for eventHeap:
// each bucket holds a single tick (two times mapping to the same slot differ
// by a full horizon and cannot both be pending, because pushes never precede
// the clock and never reach a full horizon ahead without overflowing), the
// ring is scanned in time order from the current tick, and the front bucket
// is put in key order (an insertion sort: the engine pushes mostly in key
// order) before anything pops from it, front to back through a head cursor.
// The differential fuzz target in calendar_test.go holds the pop sequence to
// that of a plain eventHeap fed the same pushes.

// calendarHorizon returns the bucket-ring span for the given parameters: the
// power of two above the largest routine scheduling delta (512 ticks for the
// default 271), bounded so a pathological parameter sweep cannot ask for an
// absurd ring. The ring is cycled once per horizon ticks, so every bucket
// beyond what is actually scheduled is memory walked for nothing; events
// that stack deltas past it (ExtraCPU charges, pacing waits) are what the
// overflow heap is for.
func calendarHorizon(par Params) int64 {
	h := int64(MaxPacketBytes) + par.RouterDelay // arrival of a full packet
	h = max(h, par.CreditDelay, par.EscapeDelay, par.CPUCost(MaxPacketBytes))
	const minHorizon, maxHorizon = 64, 1 << 16
	h = min(max(h, minHorizon-1), maxHorizon-1)
	return 1 << bits.Len64(uint64(h)) // the power of two above h
}

// calendarQueue is the bounded-horizon event structure. Invariants:
//   - base is the time of the most recently popped event (0 before the
//     first pop); pushes at t with t-base in [0, horizon) go to bucket
//     t&mask, anything else (including the defensive t < base case, which
//     the engine never produces) goes to the overflow heap;
//   - every bucketed event e satisfies e.t-base in [0, horizon), so bucket
//     t&mask holds one tick only: its position in the ring gives the tick
//     back, so a bucket stores packed keys alone (half an event), and
//     intra-bucket order is pure key order;
//   - a bucket's pending keys are buckets[i][head[i]:]: a pop advances the
//     head cursor, and the bucket's storage is truncated when the last key
//     goes. The keys are in ascending order unless the dirty bit is set. A
//     saturated 8x8x8 run holds ~47 events per tick, so ordering a future
//     tick's bucket on every push is a long insertion scan per event;
//     instead a push appends and marks the bucket dirty, and locate orders
//     it once, when the bucket first becomes the front of the ring, with an
//     insertion sort: the engine pushes a tick's keys mostly in order (1.9
//     shifts a key on a saturated 8x8x8 run);
//   - front is the bucket locate last ordered. Pushes into it insert in
//     place from the tail, never below the head cursor, which keeps it
//     clean: the engine pushes same-tick events between pops, and the
//     sharded engine calls top() and then pushes mailbox events before it
//     pops, so the bucket holding the cached minimum must stay ordered
//     under pushes;
//   - occ mirrors bucket non-emptiness one bit per bucket, so the scan for
//     the next non-empty bucket runs 64 buckets per word;
//   - the cached minimum (cmin/cidx, valid when cvalid) memoizes the scan
//     between top and pop; a push only invalidates it when the new event
//     sorts before it, so the sharded engine's top-per-iteration loop does
//     not rescan the ring, and a pop that leaves the front bucket non-empty
//     caches its next key (or the overflow top, if that sorts earlier);
//   - a bucket's storage is its kept slice of bucketKeys keys (carved from
//     keep, which the first push that needs one allocates) or, while its
//     tick holds more, storage borrowed from free. A push that finds the
//     storage full moves the pending keys to borrowed storage of twice the
//     capacity and gives the old back unless it is the kept slice; a
//     bucket gives borrowed storage back when it empties and at reset.
//     Ticks burst (the CPUs of all nodes finish operations of one cost on
//     the same tick), so over a long run every bucket meets a tick many
//     times the ring's average: buckets that kept their largest storage
//     held memory growing with P, where free holds only what was borrowed
//     at once. A run repeated on a recycled network replays the same
//     borrows, so it allocates nothing.
type calendarQueue struct {
	buckets [][]uint64 // per tick: the key of each event, popped up to head
	head    []int32    // per bucket: index of the next key to pop
	occ     []uint64
	dirty   []uint64 // bit per bucket: appended to since it was last sorted
	mask    int64    // horizon - 1 (horizon is a power of two)
	base    int64    // time of the last pop; floor for every bucketed event
	cur     int      // ring index of base (base & mask)
	front   int      // bucket kept in order under pushes; -1 = none yet
	n       int      // events in buckets (excluding overflow)

	cvalid bool
	cidx   int // bucket of the cached minimum; -1 = overflow heap
	cmin   event

	over eventHeap // beyond-horizon events; consulted on every top/pop

	keep []uint64     // bucketKeys kept keys per bucket, in ring order
	free [][][]uint64 // [c]: borrowed storage of capacity 1<<c not in use
}

// bucketKeys is the storage a bucket keeps: 64 keys, 512 bytes, 256 KB a
// ring. On one engine of an 8x8x8 AR run at m=208 or m=960, 93 % of the
// ticks peak at 63 keys or fewer and 99 % at 127 or fewer, so a few ticks
// in a hundred borrow. A power of two: borrowed capacities double from it.
const bucketKeys = 64

// init sizes the ring for the given horizon, keeping existing storage when
// the size already matches (Reset reuse). The queue must be empty.
func (q *calendarQueue) init(horizon int64) {
	if int64(len(q.buckets)) == horizon {
		return
	}
	q.buckets = make([][]uint64, horizon)
	q.head = make([]int32, horizon)
	q.occ = make([]uint64, horizon/64)
	q.dirty = make([]uint64, horizon/64)
	q.mask = horizon - 1
	q.front = -1
	q.keep, q.free = nil, nil
}

func (q *calendarQueue) len() int { return q.n + q.over.len() }

// reset discards all pending events. A bucket keeps its kept slice and
// gives borrowed storage back to free, where the next run borrows it again.
func (q *calendarQueue) reset() {
	if q.n > 0 {
		for w, word := range q.occ {
			for word != 0 {
				i := bits.TrailingZeros64(word)
				word &^= 1 << i
				q.empty(w<<6 | i)
			}
			q.occ[w], q.dirty[w] = 0, 0
		}
	}
	q.n = 0
	q.base = 0
	q.cur = 0
	q.front = -1
	q.cvalid = false
	q.over.reset()
}

func (q *calendarQueue) push(e event) {
	if q.cvalid && less(e, q.cmin) {
		q.cvalid = false
	}
	if uint64(e.t-q.base) > uint64(q.mask) { // beyond horizon (or behind base)
		q.over.push(e)
		return
	}
	idx := int(e.t & q.mask)
	bit := uint64(1) << (uint(idx) & 63)
	k := e.key
	b := q.buckets[idx]
	if len(b) == cap(b) {
		b = q.grow(idx)
	}
	b = append(b, k)
	if idx == q.front {
		// Ordered insert from the tail: shift the larger keys right, but
		// not below the head (a key there is the next to pop).
		i, h := len(b)-1, int(q.head[idx])
		for i > h && b[i-1] > k {
			b[i] = b[i-1]
			i--
		}
		b[i] = k
	} else {
		q.dirty[idx>>6] |= bit
	}
	q.buckets[idx] = b
	q.occ[idx>>6] |= bit
	q.n++
}

// ringScan returns the bucket index of the earliest non-empty bucket in ring
// order starting at cur, or -1 when the ring is empty. Ring order from cur is
// time order because every bucketed event lies within one horizon of base.
func (q *calendarQueue) ringScan() int {
	if q.n == 0 {
		return -1
	}
	w0 := q.cur >> 6
	off := uint(q.cur) & 63
	if word := q.occ[w0] &^ (1<<off - 1); word != 0 {
		return w0<<6 + bits.TrailingZeros64(word)
	}
	nw := len(q.occ)
	for i := 1; i <= nw; i++ {
		w := w0 + i
		if w >= nw {
			w -= nw
		}
		// At i == nw this re-reads word w0: only bits below off can still be
		// set (anything at or above off would have matched above), and those
		// are exactly the wrapped tail of the ring.
		if word := q.occ[w]; word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// locate computes the cached minimum: the winner of the first bucket's head
// vs the overflow top under less(), ordering that bucket first if pushes
// left it dirty. The overflow top can legitimately sort before every bucketed
// event (it was pushed beyond an older horizon that has since advanced
// underneath it), so the comparison runs on every pop.
func (q *calendarQueue) locate() {
	if idx := q.ringScan(); idx >= 0 {
		b := q.buckets[idx][q.head[idx]:]
		if bit := uint64(1) << (uint(idx) & 63); q.dirty[idx>>6]&bit != 0 {
			insertionSort(b)
			q.dirty[idx>>6] &^= bit
		}
		q.front = idx
		e := event{t: q.base + int64((idx-q.cur)&int(q.mask)), key: b[0]}
		if q.over.len() > 0 && less(q.over.top(), e) {
			q.cmin, q.cidx = q.over.top(), -1
		} else {
			q.cmin, q.cidx = e, idx
		}
	} else {
		q.cmin, q.cidx = q.over.top(), -1 // caller guarantees len() > 0
	}
	q.cvalid = true
}

// top returns the minimum event without removing it. Must not be called on
// an empty queue.
func (q *calendarQueue) top() event {
	if !q.cvalid {
		q.locate()
	}
	return q.cmin
}

func (q *calendarQueue) pop() event {
	if !q.cvalid {
		q.locate()
	}
	e := q.cmin
	// Advance the clock floor to the popped time; the ring origin follows.
	// base moves only here, so a concurrent-window push (sharded drain) can
	// never alias into a stale slot.
	q.base = e.t
	q.cur = int(e.t & q.mask)
	q.cvalid = false
	if q.cidx < 0 {
		q.over.pop()
		return e
	}
	idx := q.cidx
	q.n--
	b, h := q.buckets[idx], q.head[idx]+1
	if int(h) == len(b) {
		q.empty(idx)
		q.occ[idx>>6] &^= 1 << (uint(idx) & 63)
		return e
	}
	// The front bucket still holds this tick's next key: nothing bucketed
	// sorts earlier, so only the overflow top can.
	q.head[idx] = h
	q.cmin, q.cvalid = event{t: e.t, key: b[h]}, true
	if q.over.len() > 0 && less(q.over.top(), q.cmin) {
		q.cmin, q.cidx = q.over.top(), -1
	}
	return e
}

// kept returns bucket idx's kept slice, empty.
func (q *calendarQueue) kept(idx int) []uint64 {
	return q.keep[idx*bucketKeys : idx*bucketKeys : (idx+1)*bucketKeys]
}

// grow returns bucket idx's storage with room for one more key: the kept
// slice if the bucket has had no storage yet, else borrowed storage of
// twice the capacity holding the pending keys from its front.
func (q *calendarQueue) grow(idx int) []uint64 {
	b := q.buckets[idx]
	if cap(b) == 0 {
		if q.keep == nil {
			q.keep = make([]uint64, len(q.buckets)*bucketKeys)
		}
		q.buckets[idx] = q.kept(idx)
		return q.buckets[idx]
	}
	nb := append(q.borrow(2*cap(b)), b[q.head[idx]:]...)
	if cap(b) > bucketKeys {
		q.giveBack(b)
	}
	q.buckets[idx], q.head[idx] = nb, 0
	return nb
}

// empty truncates bucket idx, giving borrowed storage back for its kept
// slice.
func (q *calendarQueue) empty(idx int) {
	if b := q.buckets[idx]; cap(b) > bucketKeys {
		q.giveBack(b)
		q.buckets[idx] = q.kept(idx)
	} else {
		q.buckets[idx] = b[:0]
	}
	q.head[idx] = 0
}

// borrow returns empty storage of capacity size, a power of two, from free
// or, when free has none of that size, freshly allocated.
func (q *calendarQueue) borrow(size int) []uint64 {
	c := bits.TrailingZeros(uint(size))
	if c < len(q.free) {
		if n := len(q.free[c]); n > 0 {
			b := q.free[c][n-1]
			q.free[c] = q.free[c][:n-1]
			return b
		}
	}
	return make([]uint64, 0, size)
}

// giveBack puts borrowed storage b into free for the next borrow of its
// capacity.
func (q *calendarQueue) giveBack(b []uint64) {
	c := bits.TrailingZeros(uint(cap(b)))
	for len(q.free) <= c {
		q.free = append(q.free, nil)
	}
	q.free[c] = append(q.free[c], b[:0])
}

// insertionSort orders keys ascending in place; it is linear on the nearly
// sorted buckets the engine fills.
func insertionSort(b []uint64) {
	for i := 1; i < len(b); i++ {
		k, j := b[i], i
		for j > 0 && b[j-1] > k {
			b[j] = b[j-1]
			j--
		}
		b[j] = k
	}
}
