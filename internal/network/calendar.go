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
// ring is scanned in time order from the current tick, and ties within a
// bucket are kept sorted by the packed key. The differential fuzz target in
// calendar_test.go holds the pop sequence to that of a plain eventHeap fed
// the same pushes.

// calendarHorizon returns the bucket-ring span (a power of two) for the
// given parameters: comfortably past the largest routine scheduling delta so
// the overflow heap only sees genuinely unusual events, bounded so a
// pathological parameter sweep cannot ask for an absurd ring.
func calendarHorizon(par Params) int64 {
	h := int64(MaxPacketBytes) + par.RouterDelay // arrival of a full packet
	if par.CreditDelay > h {
		h = par.CreditDelay
	}
	if par.EscapeDelay > h {
		h = par.EscapeDelay
	}
	if c := par.CPUCost(MaxPacketBytes); c > h {
		h = c
	}
	h *= 4 // headroom: stacked deltas (size + delay), modest ExtraCPU charges
	const minHorizon, maxHorizon = 64, 1 << 16
	if h < minHorizon {
		h = minHorizon
	}
	if h > maxHorizon {
		h = maxHorizon
	}
	return 1 << bits.Len64(uint64(h-1)) // round up to a power of two
}

// calendarQueue is the bounded-horizon event structure. Invariants:
//   - base is the time of the most recently popped event (0 before the
//     first pop); pushes at t with t-base in [0, horizon) go to bucket
//     t&mask, anything else (including the defensive t < base case, which
//     the engine never produces) goes to the overflow heap;
//   - every bucketed event e satisfies e.t-base in [0, horizon), so bucket
//     t&mask holds one tick only and intra-bucket order is pure key order;
//   - buckets are kept sorted descending (tail = minimum) so a pop is a
//     slice truncation and a same-tick push is an insertion scan from the
//     tail, which is short because ties share one tick;
//   - occ mirrors bucket non-emptiness one bit per bucket, so the scan for
//     the next non-empty bucket runs 64 buckets per word;
//   - the cached minimum (cmin/cidx, valid when cvalid) memoizes the scan
//     between top and pop; a push only invalidates it when the new event
//     sorts before it, so the sharded engine's top-per-iteration loop does
//     not rescan the ring.
type calendarQueue struct {
	buckets [][]event
	occ     []uint64
	mask    int64 // horizon - 1 (horizon is a power of two)
	base    int64 // time of the last pop; floor for every bucketed event
	cur     int   // ring index of base (base & mask)
	n       int   // events in buckets (excluding overflow)

	cvalid bool
	cidx   int // bucket of the cached minimum; -1 = overflow heap
	cmin   event

	over eventHeap // beyond-horizon events; consulted on every top/pop
}

// init sizes the ring for the given horizon, keeping existing storage when
// the size already matches (Reset reuse).
func (q *calendarQueue) init(horizon int64) {
	if int64(len(q.buckets)) == horizon {
		return
	}
	q.buckets = make([][]event, horizon)
	q.occ = make([]uint64, horizon/64)
	q.mask = horizon - 1
}

func (q *calendarQueue) len() int { return q.n + q.over.len() }

// reset discards all pending events, keeping bucket storage for the next run.
func (q *calendarQueue) reset() {
	if q.n > 0 {
		for w, word := range q.occ {
			for word != 0 {
				i := bits.TrailingZeros64(word)
				word &^= 1 << i
				idx := w<<6 | i
				q.buckets[idx] = q.buckets[idx][:0]
			}
			q.occ[w] = 0
		}
	}
	q.n = 0
	q.base = 0
	q.cur = 0
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
	b := append(q.buckets[idx], e)
	// Descending insert from the tail: shift strictly-smaller events right.
	// The scan stays within one tick's ties, which are short in practice.
	i := len(b) - 1
	for i > 0 && less(b[i-1], e) {
		b[i] = b[i-1]
		i--
	}
	b[i] = e
	q.buckets[idx] = b
	q.occ[idx>>6] |= 1 << (uint(idx) & 63)
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

// locate computes the cached minimum: the winner of the first-bucket tail vs
// the overflow top under less(). The overflow top can legitimately sort
// before every bucketed event (it was pushed beyond an older horizon that
// has since advanced underneath it), so the comparison runs on every pop.
func (q *calendarQueue) locate() {
	if idx := q.ringScan(); idx >= 0 {
		b := q.buckets[idx]
		e := b[len(b)-1]
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
	if q.cidx < 0 {
		q.over.pop()
	} else {
		b := q.buckets[q.cidx]
		q.buckets[q.cidx] = b[:len(b)-1]
		if len(b) == 1 {
			q.occ[q.cidx>>6] &^= 1 << (uint(q.cidx) & 63)
		}
		q.n--
	}
	// Advance the clock floor to the popped time; the ring origin follows.
	// base moves only here, so a concurrent-window push (sharded drain) can
	// never alias into a stale slot.
	q.base = e.t
	q.cur = int(e.t & q.mask)
	q.cvalid = false
	return e
}
