package network

// event is a scheduled simulator action, packed to 16 bytes for queue
// throughput: the queues move events by value, so smaller structs mean fewer
// copied bytes per insert. key packs (node, kind, arg) into one word
// (node in the high 29 bits, kind in the next 3, arg in the low 32), which
// also makes the tie-break comparison a single machine compare.
type event struct {
	t   int64
	key uint64
}

const (
	evArrive  = iota // packet arg finishes traversing a link into node
	evService        // run router arbitration at node
	evCPUKick        // re-poll the node's CPU (throttle wait expiry)
	evCredit         // apply a token return (arg packs dir, vc, cost) at node
	evFault          // apply fault-schedule transition arg (index) at node
)

func mkEvent(t int64, node, a int32, kind uint8) event {
	return event{t: t, key: uint64(uint32(node))<<35 | uint64(kind)<<32 | uint64(uint32(a))}
}

func (e event) node() int32 { return int32(e.key >> 35) }
func (e event) kind() uint8 { return uint8(e.key>>32) & 7 }
func (e event) arg() int32  { return int32(uint32(e.key)) }

// Arrival args put the input direction in the high bits and the packet-pool
// index in the low 28. Simultaneous arrivals at one node always come from
// distinct input directions (a link serializes: successive grants yield
// strictly increasing ETAs), so the tie-break never reaches the pid bits.
// That makes the event order independent of pool-slot assignment, which is
// what lets a sharded run - whose per-engine pools hand out different pids
// than one engine's free list - reproduce the one-engine run byte for byte.
const arrivePidBits = 28

func arriveArg(inDir int8, pid int32) int32 {
	return int32(inDir)<<arrivePidBits | pid
}

func arrivePid(a int32) int32 { return a & (1<<arrivePidBits - 1) }

// Credit args pack (output direction, vc, token cost); cost is at most
// MaxPacketBytes so 12 bits suffice.
func creditArg(dir int, vc int8, cost int32) int32 {
	return int32(dir)<<16 | int32(vc)<<12 | cost
}

func creditUnpack(a int32) (dir int, vc int8, cost int32) {
	return int(a >> 16), int8(a >> 12 & 0xf), a & 0xfff
}

// less orders events by time, breaking ties on (node, kind, arg) via the
// packed key. The strict total order makes the pop sequence a pure function
// of the pushed multiset - every pop returns the unique minimum of the
// current contents - so simulation results cannot shift when the queue's
// internal structure changes, and two events that compare
// equal are byte-identical and interchangeable.
func less(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.key < b.key
}

// eventHeap is a 4-ary min-heap of events: the calendar queue's store for
// beyond-horizon events (calendar.go) and the reference the queue-level tests
// compare the calendar against.
type eventHeap struct {
	ev []event
}

const heapArity = 4

func (h *eventHeap) len() int { return len(h.ev) }

// top returns the minimum event without removing it. Must not be called on
// an empty heap.
func (h *eventHeap) top() event { return h.ev[0] }

// reset discards all pending events, keeping the backing array.
func (h *eventHeap) reset() { h.ev = h.ev[:0] }

// push sifts the hole up (one copy per level, not a swap).
func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		pe := h.ev[parent]
		if !less(e, pe) {
			break
		}
		h.ev[i] = pe
		i = parent
	}
	h.ev[i] = e
}

// pop sifts the displaced tail element down as a hole (one copy per level).
func (h *eventHeap) pop() event {
	top := h.ev[0]
	last := len(h.ev) - 1
	e := h.ev[last]
	h.ev = h.ev[:last]
	if last == 0 {
		return top
	}
	i := 0
	for {
		first := heapArity*i + 1
		if first >= last {
			break
		}
		end := first + heapArity
		if end > last {
			end = last
		}
		smallest, se := first, h.ev[first]
		for c := first + 1; c < end; c++ {
			if ce := h.ev[c]; less(ce, se) {
				smallest, se = c, ce
			}
		}
		if !less(se, e) {
			break
		}
		h.ev[i] = se
		i = smallest
	}
	h.ev[i] = e
	return top
}
