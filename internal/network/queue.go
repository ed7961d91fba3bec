package network

import (
	"math/bits"
	"sync"
)

// pktRef is one queued packet's arbitration-hot state. tryQueue, tryRoute,
// and noteBlocked read (and for blocked, write) these fields for every
// candidate on every pass; keeping them in the ring slot keeps those passes
// on contiguous memory instead of chasing a random packet-pool pointer per
// entry. The struct is deliberately squeezed to 16 bytes - four refs per
// cache line - because the ring's first-touch miss is the hottest line in
// the whole simulator: the packet's identity (pool index) lives in a
// parallel ring (pktQueue.ids) that is only read when a packet actually
// moves, i.e. on ~2% of visits, and its destination is not stored at all
// (want == 0 <=> no hops remain <=> the packet is at its destination).
// The header fields are settled before the packet is pushed and never
// change while it sits in a queue, so the copy cannot go stale; blocked is
// owned by the slot for the duration of the residence (it is 0 at every
// push, by construction: grants zero it and injections start fresh) and
// the pool copy is re-zeroed on grant.
type pktRef struct {
	blocked int64   // time this packet first failed arbitration here (0 = never)
	size    int16   // wire bytes (<= MaxPacketBytes)
	hops    [3]int8 // remaining signed hops per dimension
	vcIn    int8    // packed (vc+1)<<3 | (inDir+1); see packVCIn
	want    uint8   // bitmask of output directions this packet can use next
	det     bool
}

// packVCIn packs a VC index and input direction (both may be -1: injection
// FIFO residence) into one byte: vc+1 in bits 3.. and inDir+1 in bits 0..2.
func packVCIn(vc, inDir int8) int8 {
	return (vc+1)<<3 | (inDir + 1)
}

func (rf *pktRef) vc() int8    { return rf.vcIn>>3 - 1 }
func (rf *pktRef) inDir() int8 { return rf.vcIn&7 - 1 }

// pktQueue is a FIFO of packet refs with byte accounting. Capacity is
// expressed in bytes and admission is governed by the byte budget alone; the
// slot ring behind it is sized by demand. It starts at the slot count that
// holds the queue's nominal bytes of maximum-size packets (ringSlots) -
// what a long-message run queues - and doubles, out of the Network's
// ringSlab, when a byte-accepted push finds it full, so a byte-accepted push
// never lacks a slot by construction. For an input VC the nominal bytes are
// VCBytes, 8 slots, one packet short of its byte budget: the bubble VC
// never overshoots VCBytes, and only a dynamic VC's flit-credit overshoot,
// or packets below the maximum size, grow its ring. Slot counts are powers
// of two so ring indexing is a mask rather than a division. Worst-case
// sizing (capBytes of minimum-size packets) takes 4x the slots, and on a
// 512-node machine the rings' first-touch misses, not arbitration, then set
// the cost of an event.
//
// The scalars a service pass reads to decide whether to visit the queue at
// all come first, so that decision costs one cache line of the router.
type pktQueue struct {
	count int32
	win   int32 // arbitration lookahead: the first win entries are candidates

	// Queue-level arbitration summary, maintained so service passes can
	// skip a queue without touching its ring (the ring is a separate,
	// usually cache-cold allocation). wantOR is a superset of the queued
	// entries' want masks: exact after a push, possibly stale-high after a
	// removal (it only resets when the queue empties). Stale-high is safe:
	// it can only cause a visit that scans and moves nothing, which is
	// exactly what the visit would have done anyway. nDeliv is the exact
	// count of queued packets at their destination (want == 0 <=> no hops
	// remain <=> deliverable here); those move under any wake mask, so a
	// skip additionally requires nDeliv == 0.
	wantOR uint8
	nDeliv uint8

	// Quiet-window summary, written by settle after a scan that moved
	// nothing. quietClock != 0 asserts that every entry of the arbitration
	// window has a started escape clock, the latest of which started at
	// quietClock, and that winOR is the OR of their want masks. A failed
	// visit only ever starts an escape clock (blocked == 0) or re-arms the
	// maturity wakeup (before engine.escapeAt(blocked)), so once the latest
	// clock has matured a visit that finds every output in winOR busy
	// changes nothing and can be skipped without loading the ring
	// (engine.service). The summary describes the window's contents, so
	// everything that changes them clears it: a push into the window, pop,
	// removeAt, reroutePkt, reset.
	winOR      uint8
	quietClock int64

	head     int32
	mask     int32
	bytes    int32
	capBytes int32
	buf      []pktRef
	ids      []int32 // parallel ring: pool index of each queued packet
}

// ringSlots returns the initial ring size (in slots) backing a queue of
// capBytes: enough for capBytes of maximum-size packets, as a power of two.
func ringSlots(capBytes int32) int32 {
	slots := (capBytes + MaxPacketBytes - 1) / MaxPacketBytes
	if slots < 1 {
		slots = 1
	}
	return int32(1) << bits.Len32(uint32(slots-1))
}

// ringSlab is the Network-owned storage every ring is carved from. New lays
// the initial rings of the whole machine into one chunk, in node order, so a
// service pass visiting several queues of the same node stays within a few
// contiguous lines instead of chasing one heap allocation per queue. The id
// rings live in their own chunk: scans never load them, so keeping them out
// of the header chunk doubles the header density per cache line. Growth
// carves from further chunks; a ring keeps what it grew to across Reset, so
// a recycled network grows nothing on a repeated run, and the ring a
// doubling abandons is not reused (the abandoned total is below the live
// total, and networks are short-lived where rings grow at all). The lock
// covers growth only: shards of one run may grow rings concurrently.
type ringSlab struct {
	mu   sync.Mutex
	refs []pktRef
	ids  []int32
}

// growChunkSlots is the allocation unit for ring growth: large enough that
// a run's doublings cost a handful of allocations, small against a network.
const growChunkSlots = 4096

func (s *ringSlab) carve(slots int32) ([]pktRef, []int32) {
	if int(slots) > len(s.refs) {
		n := max(int(slots), growChunkSlots)
		s.refs, s.ids = make([]pktRef, n), make([]int32, n)
	}
	refs, ids := s.refs[:slots:slots], s.ids[:slots:slots]
	s.refs, s.ids = s.refs[slots:], s.ids[slots:]
	return refs, ids
}

// newPktQueue returns an empty queue of capBytes with arbitration lookahead
// win, its initial ring of slots (a power of two) carved from slab.
func newPktQueue(slab *ringSlab, capBytes, slots, win int32) pktQueue {
	buf, ids := slab.carve(slots)
	return pktQueue{buf: buf, ids: ids, mask: slots - 1, capBytes: capBytes, win: win}
}

// grow doubles a full ring, unrolling it so the head lands on slot 0.
func (q *pktQueue) grow(slab *ringSlab) {
	slab.mu.Lock()
	buf, ids := slab.carve(2 * (q.mask + 1))
	slab.mu.Unlock()
	for i := int32(0); i < q.count; i++ {
		pos := (q.head + i) & q.mask
		buf[i], ids[i] = q.buf[pos], q.ids[pos]
	}
	q.buf, q.ids = buf, ids
	q.head, q.mask = 0, int32(len(buf))-1
}

func (q *pktQueue) empty() bool { return q.count == 0 }

// reset discards all contents, keeping the ring (at whatever size it grew
// to) and installing the arbitration lookahead of the coming run.
func (q *pktQueue) reset(win int32) {
	q.head, q.count, q.bytes = 0, 0, 0
	q.wantOR, q.nDeliv = 0, 0
	q.quietClock = 0
	q.win = win
}

// fits reports whether a packet of the given size can be accepted.
func (q *pktQueue) fits(size int32) bool {
	return q.bytes+size <= q.capBytes
}

// push appends ref for pool packet pid, charging cost bytes against the
// capacity (the cost is the flow-control footprint, which for escape-VC
// packets exceeds the wire size).
func (q *pktQueue) push(slab *ringSlab, ref pktRef, pid, cost int32) {
	if !q.fits(cost) {
		panic("network: pktQueue overflow (flow control violated)")
	}
	if q.count > q.mask {
		q.grow(slab)
	}
	if q.count < q.win {
		q.quietClock = 0
	}
	pos := (q.head + q.count) & q.mask
	q.buf[pos] = ref
	q.ids[pos] = pid
	q.count++
	q.bytes += cost
	q.wantOR |= ref.want
	if ref.want == 0 {
		q.nDeliv++
	}
}

func (q *pktQueue) peek() int32 {
	return q.ids[q.head]
}

func (q *pktQueue) pop(cost int32) int32 {
	return q.removeAt(0, cost)
}

// at returns the i-th queued ref (0 = head) without removing it. The pointer
// aliases the ring slot and is invalidated by any removeAt/pop and by a push
// that grows the ring.
func (q *pktQueue) at(i int32) *pktRef {
	return &q.buf[(q.head+i)&q.mask]
}

// idAt returns the pool index of the i-th queued packet (0 = head).
func (q *pktQueue) idAt(i int32) int32 {
	return q.ids[(q.head+i)&q.mask]
}

// removeAt removes the i-th entry, preserving the order of the rest.
func (q *pktQueue) removeAt(i, cost int32) int32 {
	pos := (q.head + i) & q.mask
	pid := q.ids[pos]
	if q.buf[pos].want == 0 {
		q.nDeliv--
	}
	for j := i; j > 0; j-- {
		cur := (q.head + j) & q.mask
		prev := (q.head + j - 1) & q.mask
		q.buf[cur] = q.buf[prev]
		q.ids[cur] = q.ids[prev]
	}
	q.head = (q.head + 1) & q.mask
	q.count--
	q.bytes -= cost
	q.quietClock = 0
	if q.count == 0 {
		q.wantOR = 0
	}
	return pid
}

// settle records the quiet-window summary after a scan of the window that
// moved nothing: valid only when every window entry has a started escape
// clock (an entry the scan passed over under its wake mask may not), else
// cleared.
func (q *pktQueue) settle() {
	q.quietClock = 0
	var or uint8
	var last int64
	for i := int32(0); i < q.count && i < q.win; i++ {
		rf := q.at(i)
		if rf.blocked == 0 {
			return
		}
		or |= rf.want
		last = max(last, rf.blocked)
	}
	q.winOR, q.quietClock = or, last
}
