package network

import (
	"testing"
	"testing/quick"

	"alltoall/internal/torus"
)

func TestPktQueueFIFO(t *testing.T) {
	var slab ringSlab
	q := newPktQueue(&slab, 1024, ringSlots(1024), 1)
	for i := int32(0); i < 4; i++ {
		if !q.fits(256) {
			t.Fatalf("push %d rejected", i)
		}
		q.push(&slab, pktRef{}, i, 256)
	}
	if q.fits(64) {
		t.Error("overfull accept")
	}
	for i := int32(0); i < 4; i++ {
		if got := q.peek(); got != i {
			t.Fatalf("peek = %d, want %d", got, i)
		}
		if got := q.pop(256); got != i {
			t.Fatalf("pop = %d, want %d", got, i)
		}
	}
	if !q.empty() {
		t.Error("not empty after draining")
	}
}

func TestPktQueueRemoveAt(t *testing.T) {
	var slab ringSlab
	q := newPktQueue(&slab, 2048, ringSlots(2048), 1)
	for i := int32(0); i < 5; i++ {
		q.push(&slab, pktRef{}, 10+i, 64)
	}
	if got := q.removeAt(2, 64); got != 12 {
		t.Fatalf("removeAt(2) = %d", got)
	}
	want := []int32{10, 11, 13, 14}
	for i, w := range want {
		if got := q.idAt(int32(i)); got != w {
			t.Fatalf("after removeAt, at(%d) = %d, want %d", i, got, w)
		}
	}
	// Remove the head via removeAt(0) matches pop semantics.
	if got := q.removeAt(0, 64); got != 10 {
		t.Fatalf("removeAt(0) = %d", got)
	}
	if q.count != 3 || q.bytes != 3*64 {
		t.Fatalf("count=%d bytes=%d", q.count, q.bytes)
	}
}

func TestPktQueueWrapAround(t *testing.T) {
	var slab ringSlab
	q := newPktQueue(&slab, 4*64, ringSlots(4*64), 1)
	// Exercise ring wrap: repeatedly push/pop past the buffer end.
	next := int32(0)
	expect := int32(0)
	for round := 0; round < 25; round++ {
		for q.fits(64) {
			q.push(&slab, pktRef{}, next, 64)
			next++
		}
		q.pop(64)
		expect++
		q.removeAt(1, 64) // middle removal under wrap
		// The removed id is expect+1; account for it.
		for i := int32(0); i < q.count; i++ {
			got := q.idAt(i)
			if got == expect+1 {
				t.Fatalf("removed element still present")
			}
		}
		// Drain one more to keep ids tractable.
		got := q.pop(64)
		if got != expect {
			t.Fatalf("round %d: pop = %d, want %d", round, got, expect)
		}
		expect += 2 // one popped + one removed from the middle
	}
}

func TestPktQueueOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("overflow did not panic")
		}
	}()
	var slab ringSlab
	q := newPktQueue(&slab, 128, ringSlots(128), 1)
	q.push(&slab, pktRef{}, 0, 64)
	q.push(&slab, pktRef{}, 1, 64)
	q.push(&slab, pktRef{}, 2, 64)
}

// TestPktQueueGrowth fills a VC to its byte capacity with minimum-size
// packets - four times what its initial ring holds - from a wrapped head, and
// checks after every push that the queue reads back in FIFO order with exact
// byte accounting and wantOR/nDeliv summaries: a doubling must move nothing
// but the storage.
func TestPktQueueGrowth(t *testing.T) {
	capBytes := DefaultParams().VCBytes + MaxPacketBytes
	var slab ringSlab
	q := newPktQueue(&slab, capBytes, ringSlots(capBytes), 4)
	first := q.mask + 1
	// Wrap the head so a doubling has to unroll the ring.
	for i := int32(0); i < first-3; i++ {
		q.push(&slab, pktRef{want: 1}, i, MinPacketBytes)
		q.pop(MinPacketBytes)
	}
	want := func(i int32) uint8 { // every seventh packet is deliverable here
		if i%7 == 3 {
			return 0
		}
		return 1 << (i % 6)
	}
	var n, nDeliv int32
	var or uint8
	doublings := 0
	for q.fits(MinPacketBytes) {
		before := q.mask
		q.push(&slab, pktRef{want: want(n), size: int16(n)}, 1000+n, MinPacketBytes)
		if q.mask != before {
			doublings++
		}
		or |= want(n)
		if want(n) == 0 {
			nDeliv++
		}
		n++
		if q.count != n || q.bytes != n*MinPacketBytes {
			t.Fatalf("after %d pushes: count %d bytes %d", n, q.count, q.bytes)
		}
		if q.wantOR != or || int32(q.nDeliv) != nDeliv {
			t.Fatalf("after %d pushes: wantOR %#x nDeliv %d, want %#x %d", n, q.wantOR, q.nDeliv, or, nDeliv)
		}
		for i := int32(0); i < n; i++ {
			if q.idAt(i) != 1000+i || q.at(i).size != int16(i) || q.at(i).want != want(i) {
				t.Fatalf("after %d pushes: entry %d is pid %d size %d want %#x",
					n, i, q.idAt(i), q.at(i).size, q.at(i).want)
			}
		}
	}
	if n != capBytes/MinPacketBytes {
		t.Fatalf("byte budget admitted %d minimum-size packets, want %d", n, capBytes/MinPacketBytes)
	}
	if doublings != 2 || q.mask+1 != 4*first {
		t.Fatalf("ring went %d -> %d slots in %d doublings, want 2 doublings", first, q.mask+1, doublings)
	}
	// Draining from the middle and the head keeps the order and the counts.
	if got := q.removeAt(5, MinPacketBytes); got != 1005 {
		t.Fatalf("removeAt(5) = %d", got)
	}
	for i := int32(0); q.count > 0; i++ {
		if i == 5 {
			i++
		}
		if got := q.pop(MinPacketBytes); got != 1000+i {
			t.Fatalf("pop = %d, want %d", got, 1000+i)
		}
	}
	if q.bytes != 0 || q.nDeliv != 0 || q.wantOR != 0 {
		t.Fatalf("drained queue: bytes %d nDeliv %d wantOR %#x", q.bytes, q.nDeliv, q.wantOR)
	}
	// reset keeps the grown ring.
	q.reset(4)
	if q.mask+1 != 4*first {
		t.Fatalf("reset shrank the ring to %d slots", q.mask+1)
	}
}

// TestPktQueueQuietCleared: the quiet-window summary describes the entries
// of the arbitration window, so every mutation of the window must clear it -
// and a push behind a full window must not.
func TestPktQueueQuietCleared(t *testing.T) {
	var slab ringSlab
	vcBytes := DefaultParams().VCBytes
	q := newPktQueue(&slab, vcBytes+MaxPacketBytes, ringSlots(vcBytes), 2)
	blocked := pktRef{want: 1, blocked: 10}
	settled := func(ctx string) {
		t.Helper()
		q.settle()
		if q.quietClock != 10 || q.winOR != 1 {
			t.Fatalf("%s: settle gave quietClock %d winOR %#x", ctx, q.quietClock, q.winOR)
		}
	}
	q.push(&slab, blocked, 0, MinPacketBytes)
	settled("one entry")
	q.push(&slab, blocked, 1, MinPacketBytes) // second window slot
	if q.quietClock != 0 {
		t.Error("push into the window kept quietClock")
	}
	settled("full window")
	q.push(&slab, pktRef{want: 2}, 2, MinPacketBytes) // behind the window
	if q.quietClock == 0 {
		t.Error("push behind the window cleared quietClock")
	}
	q.pop(MinPacketBytes)
	if q.quietClock != 0 {
		t.Error("pop kept quietClock")
	}
	// The fresh entry slid into the window with no escape clock: not quiet.
	if q.settle(); q.quietClock != 0 {
		t.Error("settle called a window with an unstarted escape clock quiet")
	}
	q.at(1).blocked = 10
	q.at(1).want = 1
	settled("after pop")
	q.removeAt(1, MinPacketBytes)
	if q.quietClock != 0 {
		t.Error("removeAt kept quietClock")
	}
	settled("after removeAt")
	q.reset(2)
	if q.quietClock != 0 {
		t.Error("reset kept quietClock")
	}
}

// TestReroutePktClearsQuiet covers the one window mutation that lives outside
// queue.go: a fault reroute rewrites a queued packet's want mask and restarts
// its escape clock in place.
func TestReroutePktClearsQuiet(t *testing.T) {
	nw := buildNet(t, torus.New(8, 1, 1), DefaultParams(), nil, newCountHandler(8))
	e := &nw.engines[0]
	hops := [3]int8{3, 0, 0}
	pid := e.allocPkt()
	e.pkts[pid] = packet{hops: hops, want: wantMask(hops, false)}
	q := &nw.routers[0].in[dirOf(torus.X, -1)][VCDyn0]
	q.push(&nw.rings, pktRef{hops: hops, want: wantMask(hops, false), blocked: 5}, pid, MinPacketBytes)
	if q.settle(); q.quietClock == 0 {
		t.Fatal("settle left a blocked one-packet window unsummarized")
	}
	xPlusDead := maskAll &^ uint8(1<<dirOf(torus.X, 1))
	if !e.reroutePkt(0, q, 0, xPlusDead) {
		t.Fatal("stranded packet was not rerouted")
	}
	if rf := q.at(0); rf.hops[0] != 3-8 || rf.blocked != 0 {
		t.Fatalf("rerouted header: hops %v blocked %d", rf.hops, rf.blocked)
	}
	if q.quietClock != 0 {
		t.Error("reroutePkt kept quietClock")
	}
}

func TestEventHeapOrdering(t *testing.T) {
	f := func(times []int16) bool {
		var h eventHeap
		for i, tt := range times {
			h.push(mkEvent(int64(tt), 0, int32(i), evArrive))
		}
		last := int64(-1 << 40)
		for h.len() > 0 {
			e := h.pop()
			if e.t < last {
				return false
			}
			last = e.t
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEventPacking(t *testing.T) {
	for _, tc := range []struct {
		node, a int32
		kind    uint8
	}{
		{0, 0, evArrive},
		{65535, 1 << 20, evService},
		{(1 << 29) - 1, (1 << 31) - 1, evCPUKick},
		{12345, 99, evFault},
		{7, 0x7f, evService},
	} {
		e := mkEvent(42, tc.node, tc.a, tc.kind)
		if e.node() != tc.node || e.arg() != tc.a || e.kind() != tc.kind {
			t.Errorf("mkEvent(%d,%d,%d) round-trip = (%d,%d,%d)",
				tc.node, tc.a, tc.kind, e.node(), e.arg(), e.kind())
		}
	}
}

func TestEventHeapTotalOrder(t *testing.T) {
	// Equal-time events must pop in (node, kind, arg) order regardless of
	// push order, so simulation results cannot depend on heap internals.
	var h eventHeap
	h.push(mkEvent(5, 2, 0, evArrive))
	h.push(mkEvent(5, 1, 3, evCPUKick))
	h.push(mkEvent(5, 1, 1, evService))
	h.push(mkEvent(3, 9, 0, evService))
	h.push(mkEvent(5, 1, 2, evService))
	want := []event{
		mkEvent(3, 9, 0, evService),
		mkEvent(5, 1, 1, evService),
		mkEvent(5, 1, 2, evService),
		mkEvent(5, 1, 3, evCPUKick),
		mkEvent(5, 2, 0, evArrive),
	}
	for i, w := range want {
		if got := h.pop(); got != w {
			t.Fatalf("pop %d = %+v, want %+v", i, got, w)
		}
	}
}

func TestEventHeapStableUnderInterleaving(t *testing.T) {
	var h eventHeap
	for i := 0; i < 100; i++ {
		h.push(event{t: int64(100 - i)})
		if i%3 == 0 {
			h.pop()
		}
	}
	last := int64(-1)
	for h.len() > 0 {
		e := h.pop()
		if e.t < last {
			t.Fatalf("heap order violated: %d after %d", e.t, last)
		}
		last = e.t
	}
}
