package network

import (
	"fmt"
	"math/bits"
	"slices"

	"alltoall/internal/torus"
)

const maxInt64 = int64(1<<63 - 1)

// engine is the event-processing context for a contiguous range of nodes.
// RunSharded runs one per shard (one owning every node when there is a single
// shard), each with its own event queue, packet pool, clock, and statistics,
// so workers share no mutable state except the window-barrier mailboxes.
// Routers are shard-private by construction: every router mutation happens
// at the owning node (token returns travel to the upstream router as
// evCredit events).
type engine struct {
	nw      *Network
	routers []router // shared backing array; this engine touches [lo,hi) only
	par     Params
	id      int32
	lo, hi  int32 // owned node range [lo, hi)

	evq     calendarQueue
	now     int64
	pkts    []packet
	freePkt int32 // head of free list threaded through pkts[i].dst
	stats   *Stats

	// Cached headers of the Network's SoA router state (see network.go):
	// the hot loop reads these through the engine to skip the nw pointer
	// chase. All engines share the same backing arrays; each touches only
	// its own nodes' entries.
	outBusy []int64
	tok     []int32
	tokMask []uint16
	nbrs    []int32
	occ     []uint32
	svcAt   []int64
	svcMask []uint8

	// Fault-injection state (see fault.go). faulty caches whether the run has
	// a non-empty fault schedule; off, none of the arrays below is touched
	// and every fault branch on the hot path is a predicted-false check. The
	// arrays are shared Network SoA, node-partitioned like the router state.
	faulty    bool
	deadMask  []uint8 // [node] output directions currently down
	killMask  []uint8 // [node] output directions permanently killed
	stretch   []int32 // [linkIdx] wire-occupancy multiplier (1 = healthy)
	downSince []int64 // [linkIdx] outage start, -1 while up

	// contNeed/entNeed are grantTokens(false) and grantTokens(true), fixed
	// with the Params at init: reading them keeps noteTokens inlinable.
	contNeed, entNeed int32

	inFlight  int64
	activeSrc int

	// quietSkips counts queue visits elided by the quiet-queue skip in
	// service. Diagnostic only (it differs between an observed and a plain
	// run, so it stays out of Stats); the tests read it to hold the skip on.
	quietSkips int64

	// obs taps the hot path for instrumentation (nil = off: one predicted
	// branch per hook site). cancel aborts the run when readable; it is
	// polled at every window barrier and every few thousand events between.
	// check runs the invariant checker. RunSharded sets all three from the
	// run's RunSpec at the top of every run.
	obs    Sink
	cancel <-chan struct{}
	check  bool

	// Cross-engine state; shardOf is nil on a one-engine run, which makes
	// every destination local.
	shardOf []int16
	out     [][]xmsg // outbox per destination shard, drained at window barriers
	inMin   int64    // published queue minimum for the window-size vote
	err     error

	// Counters behind SyncStats (shard.go): windows processed, barrier
	// crossings and the wall time of the slow ones, and messages sent across
	// a shard boundary.
	syncAdvances int64
	syncWaits    int64
	syncWaitNs   int64
	syncXEv      int64

	// vio holds the first invariant violation caught inside a dispatch
	// (sites that cannot return an error directly); processUntil surfaces
	// it at the end of the offending event. Only written when check is on.
	vio error

	// pad keeps adjacent engines in Network.engines off each other's cache
	// lines; the clock and queue header above are written every event.
	pad [64]byte //nolint:unused
}

func (e *engine) init(nw *Network, id, lo, hi int32) {
	e.nw = nw
	e.routers = nw.routers
	e.id = id
	e.lo, e.hi = lo, hi
	e.stats = &Stats{LinkBusy: make([]int64, nw.P*numDirs), CPUBusy: make([]int64, nw.P)}
	e.freePkt = -1
	e.outBusy = nw.outBusy
	e.tok = nw.tok
	e.tokMask = nw.tokMask
	e.nbrs = nw.nbrs
	e.occ = nw.occ
	e.svcAt = nw.svcAt
	e.svcMask = nw.svcMask
	e.par = nw.Par
	e.contNeed, e.entNeed = e.grantTokens(false), e.grantTokens(true)
	e.evq.init(calendarHorizon(nw.Par))
}

// resetRunState clears everything a run accumulates, keeping allocations
// (event buckets, packet pool, outboxes) for the next run.
func (e *engine) resetRunState() {
	e.evq.reset()
	e.now = 0
	e.pkts = e.pkts[:0]
	e.freePkt = -1
	e.inFlight = 0
	e.activeSrc = 0
	e.quietSkips = 0
	for i := range e.out {
		e.out[i] = e.out[i][:0]
	}
	e.faulty = false
	e.inMin = 0
	e.err = nil
	e.vio = nil
	e.syncAdvances, e.syncWaits, e.syncWaitNs, e.syncXEv = 0, 0, 0, 0
	e.obs = nil
	e.cancel = nil
	e.stats.reset()
}

func (e *engine) allocPkt() int32 {
	if e.freePkt >= 0 {
		pid := e.freePkt
		e.freePkt = e.pkts[pid].dst
		return pid
	}
	if len(e.pkts) == cap(e.pkts) {
		// Double: append's 1.25x steps copy a large pool five times over on
		// the way to its steady size, and a network's first long run is what
		// most served jobs are.
		e.pkts = slices.Grow(e.pkts, max(len(e.pkts), 256))
	}
	e.pkts = append(e.pkts, packet{})
	return int32(len(e.pkts) - 1)
}

func (e *engine) freePacket(pid int32) {
	e.pkts[pid].dst = e.freePkt
	e.freePkt = pid
}

// processUntil pops and dispatches events with t < tend in the strict
// (t, node, kind, arg) order: one window's worth of work, which for a
// one-engine run (tend = maxInt64) is the whole run.
func (e *engine) processUntil(tend, maxTime int64) error {
	poll := 0
	for e.evq.len() > 0 {
		if e.cancel != nil {
			if poll++; poll&8191 == 0 {
				select {
				case <-e.cancel:
					return fmt.Errorf("%w at t=%d (%d events in queue)", ErrCanceled, e.now, e.evq.len())
				default:
				}
			}
		}
		if tend != maxInt64 && e.evq.top().t >= tend {
			return nil
		}
		ev := e.evq.pop()
		if ev.t < e.now {
			return fmt.Errorf("network: time went backwards (%d < %d)", ev.t, e.now)
		}
		e.now = ev.t
		if e.now > maxTime {
			return fmt.Errorf("%w %d (in flight %d, active sources %d)",
				ErrMaxTime, maxTime, e.inFlight, e.activeSrc)
		}
		e.dispatch(ev)
		if e.check && e.vio != nil {
			return e.vio
		}
	}
	return nil
}

// dispatch executes one popped event.
func (e *engine) dispatch(ev event) {
	kind := ev.kind()
	node := ev.node()
	e.stats.EventsByKind[kind]++
	switch kind {
	case evArrive:
		e.arrive(node, arrivePid(ev.arg()))
	case evService:
		if ev.arg() != 0 {
			// A link-free wakeup, possibly standing in for several links
			// of this node that freed on the same tick (grant pushes at
			// most one such event per (node, t)); the freed set is
			// re-derived from the busy times at dispatch.
			e.serviceGroup(ev.t, node)
		} else {
			// A soft coalesced wakeup: consume the pending-service slot, and
			// any slot its pass re-arms at this tick (whose own arg-0 event
			// would pop next: nothing a pass pushes sorts between them).
			e.drainSoft(ev.t, node)
		}
	case evCPUKick:
		e.cpuDoneOrKick(node)
	case evCredit:
		dir, vc, cost := creditUnpack(ev.arg())
		e.tok[tokIdx(node, dir, int(vc))] += cost
		if vc != VCBubble {
			e.noteTokens(node, dir)
		}
		e.service(node, 1<<dir)
	case evFault:
		e.applyFault(node, ev.arg())
	}
	if e.check && e.vio == nil {
		// Events mutate only the dispatched node's router, so a node-local
		// audit after each event covers every mutation.
		if v := e.checkNode(node); v != nil {
			e.vio = v
		}
	}
}

// sendArrive delivers a routed packet to its next node: straight onto the
// local queue when this engine owns dst, else into the mailbox for dst's
// shard (the packet body travels by value; the destination engine assigns a
// slot from its own pool when it drains the mailbox at the window barrier).
func (e *engine) sendArrive(eta int64, dst, pid int32, p *packet) {
	if e.shardOf != nil {
		if s := e.shardOf[dst]; int32(s) != e.id {
			e.syncXEv++
			e.out[s] = append(e.out[s], xmsg{t: eta, node: dst, kind: evArrive, pkt: *p})
			e.inFlight--
			e.freePacket(pid)
			return
		}
	}
	e.evq.push(mkEvent(eta, dst, arriveArg(p.inDir, pid), evArrive))
}

func (e *engine) arrive(node, pid int32) {
	p := &e.pkts[pid]
	if e.faulty {
		// Stranding check before the queue-slot header is built: a packet
		// whose every minimal direction is down at this node flips to the
		// long way around the ring (fault.go).
		e.rerouteFresh(node, p)
	}
	r := &e.routers[node]
	q := &r.in[p.inDir][p.vc]
	e.admit(q, p, pid)
	e.pushed(node, r, q, int(p.inDir)*NumVC+int(p.vc))
}

// pushed marks queue qIdx (q) of node occupied after a push and makes the one
// arbitration attempt a push can enable: it frees no resources, so the pushed
// packet is the only new candidate, and only inside q's window.
func (e *engine) pushed(node int32, r *router, q *pktQueue, qIdx int) {
	e.occ[node] |= 1 << qIdx
	if q.count <= q.win {
		freeMask := e.freeOutputs(node)
		e.tryQueue(node, r, q, qIdx, &freeMask, maskAll)
	}
}

// Service wake masks: one bit per output direction, plus a bit meaning
// "reception FIFO drained".
const (
	maskRecv uint8 = 1 << 6
	maskAll  uint8 = 0x7f

	// svcPendBit marks, in the svcMask SoA byte, that a coalesced service
	// pass is pending at svcAt. Packing the flag into the mask byte keeps
	// the scheduleService fast path (called from noteBlocked on every
	// failed arbitration pass) to two small flat-array loads instead of a
	// dependent load into the ~200-byte router struct.
	svcPendBit uint8 = 1 << 7
)

// tryQueue attempts to move packets from the arbitration window of q (its
// first q.win entries). Returns true if at least one packet moved. freeMask
// is updated as links are claimed. Only packets whose desires intersect mask
// are considered; once a packet is popped, the mask widens for the rest of
// this queue (the pop is itself the wakeup for the packets behind it).
func (e *engine) tryQueue(node int32, r *router, q *pktQueue, qIdx int, freeMask *uint8, mask uint8) bool {
	moved := false
	win := q.win
	for i := int32(0); i < q.count && i < win; {
		rf := q.at(i)
		deliver := rf.want == 0 // no hops remain: the packet is at its destination
		if deliver {
			if !r.recv.fits(int32(rf.size)) {
				i++
				continue
			}
		} else if rf.want&mask == 0 {
			i++
			continue
		} else {
			granted := -1
			// Certain-failure gate: a grant needs a wanted free output whose
			// dynamic VCs pass the token threshold (entry level, or flit level
			// for the packet's own input dimension) - or the bubble escape,
			// which needs an expired escape clock. tryRoute fails without side
			// effects when none holds, so skipping the call is byte-identical;
			// the masks mirror its candidate conditions exactly (see tokMasks).
			if cand := rf.want & *freeMask; cand != 0 {
				contTok, entTok := e.tokMasks(node)
				dyn := cand&entTok != 0
				if inDir := rf.inDir(); !dyn && inDir >= 0 {
					dyn = cand&contTok&(uint8(3)<<(uint8(inDir)&^1)) != 0
				}
				if dyn || e.escapeReady(rf) {
					granted = e.tryRoute(node, rf, q, i, *freeMask)
				}
			}
			if granted < 0 {
				e.noteBlocked(node, rf, q.count, win)
				i++
				continue
			}
			*freeMask &^= 1 << granted
		}
		ref := *rf // rf aliases the ring slot removeAt is about to shuffle
		pid := e.release(node, q, i, ref)
		if deliver {
			r.recv.push(&e.nw.rings, ref, pid, int32(ref.size))
			if e.obs != nil {
				e.obs.OnRecvFIFO(node, r.recv.bytes)
			}
			e.maybeRunCPU(node)
		}
		moved = true
		mask = maskAll // entry i is now the next packet
	}
	if q.count == 0 {
		e.occ[node] &^= 1 << qIdx
	} else if !moved {
		q.settle()
	}
	return moved
}

// scheduleService enqueues a coalesced arbitration pass for node at time t,
// for the wake reasons in mask. Every caller wakes a node about a condition
// of that same node (recv space freed, escape maturity), so merging a later
// nudge into an earlier pending one is safe - the earlier pass sees the
// same local state. Token returns are NOT routed through here: they carry
// state, not just a wakeup, and run at their exact time via evCredit.
func (e *engine) scheduleService(node int32, t int64, mask uint8) {
	sm := e.svcMask[node]
	if sm&svcPendBit != 0 && e.svcAt[node] <= t {
		e.svcMask[node] = sm | mask
		return
	}
	e.svcMask[node] = sm | mask | svcPendBit
	e.svcAt[node] = t
	e.evq.push(mkEvent(t, node, 0, evService))
}

// service runs router arbitration at a node until no packet can move,
// considering packets whose desires intersect mask.
func (e *engine) service(node int32, mask uint8) {
	r := &e.routers[node]
	nQ := numDirs*NumVC + len(r.inj)
	for {
		freeMask := e.freeOutputs(node)
		if freeMask&mask == 0 && mask&maskRecv == 0 {
			return
		}
		progress := false
		r.rrCursor++
		rot := int(r.rrCursor) % nQ
		// Visit only non-empty queues, starting the rotation at rot for
		// fairness: bits >= rot first, then the wrap-around remainder.
		occ := e.occ[node]
		high := occ & (^uint32(0) << rot)
		for _, part := range [2]uint32{high, occ &^ (^uint32(0) << rot)} {
			for part != 0 {
				idx := bits.TrailingZeros32(part)
				part &^= 1 << idx
				q := r.queue(idx)
				if q.count == 0 {
					continue
				}
				// Queue-level skip, off the ring's cache lines: when no
				// queued want intersects the wake mask and nothing is
				// deliverable here, a visit would scan every entry and
				// no-op without side effects (entries failing the mask
				// check are passed over silently - no escape clock, no
				// observer callback), so eliding it is byte-identical.
				if q.nDeliv == 0 {
					if q.wantOR&mask == 0 {
						continue
					}
					// Quiet-queue skip: the last scan of this window moved
					// nothing and left every entry with a started escape
					// clock (pktQueue.settle), all of them have matured, and
					// every output any of them wants is busy. Each entry
					// would fail its mask or free-output test, and the
					// failure would neither start a clock nor re-arm a
					// wakeup, so the visit is a no-op - unless an observer
					// is listening for OnBlocked, which makes the observed
					// run the differential oracle for this skip.
					if qc := q.quietClock; qc != 0 && e.escapeAt(qc) <= e.now && q.winOR&freeMask == 0 && e.obs == nil {
						e.quietSkips++
						continue
					}
				}
				if e.tryQueue(node, r, q, idx, &freeMask, mask) {
					progress = true
				}
			}
		}
		if !progress {
			return
		}
		mask = maskAll // any move may have enabled further moves
	}
}

// serviceGroup dispatches one coalesced link-free wakeup: every output link
// of node whose busy time lands exactly on tick t freed here (links freed
// earlier were announced by their own earlier events; a link re-granted
// meanwhile has moved its busy time past t and is skipped, exactly as its
// stale per-direction event would have found the link busy and returned).
// The pass sequence replays the uncoalesced engine byte for byte: separate
// events sorted by arg, i.e. one arbitration pass per direction in ascending
// order, with a soft wakeup armed at this same tick - whose arg 0 sorts
// before any direction bit - draining first as its own pass. Only the event
// count changes; every service pass, cursor rotation, and observer callback
// is identical, which is what keeps golden outputs and the shard-count
// identity oracle stable across the coalescing optimization.
func (e *engine) serviceGroup(t int64, node int32) {
	lnk := linkIdx(node, 0)
	for d := 0; d < numDirs; d++ {
		if e.outBusy[lnk+d] != t {
			continue
		}
		e.drainSoft(t, node)
		e.service(node, 1<<d)
	}
	// A soft wakeup re-armed during the final pass would have popped as its
	// own arg-0 event right after this one; drain it the same way.
	e.drainSoft(t, node)
}

// drainSoft consumes every due coalesced service slot at node (svcAt <= t),
// running the pending pass exactly as the slot's own arg-0 dispatch would.
// The event scheduleService pushed for a drained slot still pops later, finds
// the slot empty, and no-ops.
func (e *engine) drainSoft(t int64, node int32) {
	for e.svcMask[node]&svcPendBit != 0 && e.svcAt[node] <= t {
		mask := e.svcMask[node] & maskAll
		e.svcMask[node] = 0
		if mask != 0 {
			e.service(node, mask)
		}
	}
}

// tryRoute attempts to start the queued packet rf on an output link of node
// whose bit is set in freeMask. On success the packet is committed to the
// wire (arrival event scheduled) and the granted direction is returned; the
// caller pops it from its queue. Returns -1 on failure. Candidate selection
// runs entirely on the queue-slot header; the packet pool and the queue's
// id ring (rf sits at q slot qi) are loaded only to commit a grant, so
// failed attempts stay off those cache lines.
//
// Candidates are the dynamic VCs of wanted free outputs that pass
// grantTokens, best by tokens (JSQ). Deterministic packets consider only the
// first unfinished dimension but still ride the dynamic channels: a
// packet-atomic bubble-VC deterministic mode degenerates into slot-conveyor
// throughput that flit-level hardware does not exhibit. The bubble escape VC
// is the last resort, once the packet's escape clock has matured.
func (e *engine) tryRoute(node int32, rf *pktRef, q *pktQueue, qi int32, freeMask uint8) int {
	lnk := linkIdx(node, 0)
	inDir := rf.inDir()
	toks := e.tok[lnk*NumVC : (lnk+numDirs)*NumVC]
	bestDir, bestVC, bestTok := -1, -1, int32(-1<<30)
	escJoining := false
	for d := torus.Dim(0); d < torus.NumDims; d++ {
		h := rf.hops[d]
		if h == 0 {
			continue
		}
		o := dirOf(d, int(h))
		if freeMask&(1<<o) != 0 {
			need := e.grantTokens(inDir < 0 || dimOfDir(int(inDir)) != d)
			for vc := 0; vc < 2; vc++ {
				if t := toks[o*NumVC+vc]; t >= need && t > bestTok {
					bestDir, bestVC, bestTok = o, vc, t
				}
			}
		}
		if rf.det {
			break // dimension order: only the first unfinished dimension
		}
	}
	if bestDir < 0 {
		if !e.escapeReady(rf) {
			return -1
		}
		// Strict dimension order: the lowest wanted direction is the first
		// unfinished dimension's, since want always matches hops.
		o := bits.TrailingZeros8(rf.want)
		if freeMask&(1<<o) == 0 {
			return -1
		}
		joining := rf.vc() != VCBubble || inDir < 0 || dimOfDir(int(inDir)) != dimOfDir(o)
		if toks[o*NumVC+VCBubble] < bubbleTokens(joining) {
			return -1
		}
		bestDir, bestVC, escJoining = o, VCBubble, joining
	}

	e.grant(node, q, qi, bestDir, bestVC, int32(rf.size), escJoining)
	return bestDir
}
