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

	// contTok/entTok summarize dynamic-VC token availability per output
	// direction for the arbitration pass in flight (see tokMasks); they are
	// recomputed wherever freeOutputs is and after every grant, the only
	// mid-pass token mutation.
	contTok uint8
	entTok  uint8

	inFlight  int64
	activeSrc int

	// quietSkips counts queue visits elided by the quiet-queue skip in
	// service. Diagnostic only (it differs between an observed and a plain
	// run, so it stays out of Stats); the tests read it to hold the skip on.
	quietSkips int64

	// obs taps the hot path for instrumentation (nil = off: one predicted
	// branch per hook site). cancel aborts the run when readable; it is
	// polled at every window barrier and every few thousand events between.
	obs    Sink
	cancel <-chan struct{}

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
	// it at the end of the offending event. Only written when par.Check.
	vio error

	// pad keeps adjacent engines in Network.engines off each other's cache
	// lines; the clock and queue header above are written every event.
	pad [64]byte //nolint:unused
}

func (e *engine) init(nw *Network, id, lo, hi int32) {
	e.nw = nw
	e.routers = nw.routers
	e.par = nw.Par
	e.id = id
	e.lo, e.hi = lo, hi
	e.stats = &Stats{LinkBusy: make([]int64, nw.P*numDirs), CPUBusy: make([]int64, nw.P)}
	e.freePkt = -1
	e.outBusy = nw.outBusy
	e.tok = nw.tok
	e.nbrs = nw.nbrs
	e.occ = nw.occ
	e.svcAt = nw.svcAt
	e.svcMask = nw.svcMask
	e.evq.init(calendarHorizon(nw.Par))
}

// setParams installs new runtime parameters on a recycled engine (see
// Network.ResetParams): the cached Params copy and the calendar ring, whose
// horizon is parameter-derived. The queue is drained first so a resized ring
// cannot strand stale events.
func (e *engine) setParams(par Params) {
	e.par = par
	e.evq.reset()
	e.evq.init(calendarHorizon(par))
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
		if e.par.Check && e.vio != nil {
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
			// of this node that freed on the same tick (tryRoute pushes
			// at most one such event per (node, t)); the freed set is
			// re-derived from the busy times at dispatch.
			e.serviceGroup(ev.t, node)
		} else {
			// A soft coalesced wakeup: consume the pending-service slot.
			if e.svcMask[node]&svcPendBit != 0 && e.svcAt[node] <= ev.t {
				mask := e.svcMask[node] & maskAll
				e.svcMask[node] = 0
				if mask != 0 {
					e.service(node, mask)
				}
			}
		}
	case evCPUKick:
		e.cpuDoneOrKick(node)
	case evCredit:
		dir, vc, cost := creditUnpack(ev.arg())
		e.tok[tokIdx(node, dir, int(vc))] += cost
		e.service(node, 1<<dir)
	case evFault:
		e.applyFault(node, ev.arg())
	}
	if e.par.Check && e.vio == nil {
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

// sendCredit schedules a token return at the upstream router. Unlike the
// wakeup-only scheduleService path this must not coalesce into an earlier
// pending event: the tokens become visible exactly at t, which is what
// gives the window protocol its CreditDelay of lookahead.
func (e *engine) sendCredit(up int32, dir int, vc int8, cost int32) {
	t := e.now + e.par.CreditDelay
	arg := creditArg(dir, vc, cost)
	if e.shardOf != nil {
		if s := e.shardOf[up]; int32(s) != e.id {
			e.syncXEv++
			e.out[s] = append(e.out[s], xmsg{t: t, node: up, arg: arg, kind: evCredit})
			return
		}
	}
	e.evq.push(mkEvent(t, up, arg, evCredit))
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
	qIdx := int(p.inDir)*NumVC + int(p.vc)
	q := &r.in[p.inDir][p.vc]
	q.push(&e.nw.rings, pktRef{size: int16(p.size), hops: p.hops, vcIn: packVCIn(p.vc, p.inDir),
		want: p.want, det: p.det}, pid, vcCost(p.vc, p.size))
	e.occ[node] |= 1 << qIdx
	// A push frees no resources, so the only new candidate move is the
	// arrived packet itself; a targeted attempt on this queue suffices.
	if q.count <= q.win {
		freeMask := e.freeOutputs(node)
		e.contTok, e.entTok = e.tokMasks(node)
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

func (e *engine) freeOutputs(node int32) uint8 {
	var m uint8
	now := e.now
	base := linkIdx(node, 0)
	nbrs := e.nbrs[base : base+numDirs]
	out := e.outBusy[base : base+numDirs]
	for d := 0; d < numDirs; d++ {
		if nbrs[d] >= 0 && out[d] <= now {
			m |= 1 << d
		}
	}
	if e.faulty {
		// A down link never grants: masking it here starves every arbitration
		// path at once (tryQueue, tryRoute, and the escape fallback all gate
		// on freeMask), which is the single chokepoint that makes graceful
		// degradation a routing property instead of scattered special cases.
		m &^= e.deadMask[node]
	}
	return m
}

// tokMasks summarizes the node's dynamic-VC token state per output
// direction: contTok has bit o set when some dynamic VC of output o holds at
// least one flit-credit (the threshold for traffic continuing along its
// input dimension), entTok the same at the dimension-entry threshold
// max(PacketGranule, InjectTokens) (turns and injections). Together with
// freeMask they decide candidate EXISTENCE exactly as tryRoute's scan does,
// so a packet whose wanted outputs all fail both masks - and whose escape
// clock has not expired - can skip tryRoute outright: ~95% of arbitration
// visits fail, and this keeps those failures off the token array's cache
// lines, paying the 12 loads once per pass instead of per queued packet.
func (e *engine) tokMasks(node int32) (contTok, entTok uint8) {
	base := linkIdx(node, 0) * NumVC
	toks := e.tok[base : base+numDirs*NumVC]
	entNeed := e.par.InjectTokens
	if entNeed < PacketGranule {
		entNeed = PacketGranule
	}
	for o := 0; o < numDirs; o++ {
		hi := toks[o*NumVC]
		if t := toks[o*NumVC+1]; t > hi {
			hi = t
		}
		if hi >= PacketGranule {
			contTok |= 1 << o
		}
		if hi >= entNeed {
			entTok |= 1 << o
		}
	}
	return
}

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
		if rf.want == 0 { // no hops remain: the packet is at its destination
			size := int32(rf.size)
			if !r.recv.fits(size) {
				i++
				continue
			}
			ref := *rf // rf aliases the ring slot removeAt is about to shuffle
			vc, inDir := rf.vc(), rf.inDir()
			cost := size
			if inDir >= 0 {
				cost = vcCost(vc, size)
			}
			pid := q.idAt(i)
			q.removeAt(i, cost)
			if inDir >= 0 {
				e.creditUpstream(node, inDir, vc, cost)
			} else {
				e.maybeRunCPU(node)
			}
			r.recv.push(&e.nw.rings, ref, pid, size)
			if e.obs != nil {
				e.obs.OnRecvFIFO(node, r.recv.bytes)
			}
			e.maybeRunCPU(node)
			moved = true
			mask = maskAll
			continue // entry i replaced by the next packet
		}
		if rf.want&mask == 0 {
			i++
			continue
		}
		if rf.want&*freeMask == 0 {
			e.noteBlocked(node, rf, q.count, win)
			i++
			continue
		}
		// Certain-failure gate: a grant needs a wanted free output whose
		// dynamic VCs pass the token threshold (entry level, or flit level
		// for the packet's own input dimension) - or the bubble escape,
		// which needs an expired escape clock. tryRoute fails without side
		// effects when none holds, so skipping the call is byte-identical;
		// the masks mirror its candidate conditions exactly (see tokMasks).
		if cand := rf.want & *freeMask; cand&e.entTok == 0 {
			cont := false
			if inDir := rf.inDir(); inDir >= 0 {
				cont = cand&e.contTok&(uint8(3)<<(uint8(inDir)&^1)) != 0
			}
			if !cont && (rf.blocked == 0 || e.now-rf.blocked < e.par.EscapeDelay) {
				e.noteBlocked(node, rf, q.count, win)
				i++
				continue
			}
		}
		if granted := e.tryRoute(node, rf, q, i, *freeMask); granted >= 0 {
			*freeMask &^= 1 << granted
			e.contTok, e.entTok = e.tokMasks(node)
			vc, inDir := rf.vc(), rf.inDir()
			cost := int32(rf.size)
			if inDir >= 0 {
				cost = vcCost(vc, cost)
			}
			q.removeAt(i, cost)
			if inDir >= 0 {
				e.creditUpstream(node, inDir, vc, cost)
			} else {
				e.maybeRunCPU(node)
			}
			moved = true
			mask = maskAll
			continue
		}
		e.noteBlocked(node, rf, q.count, win)
		i++
	}
	if q.count == 0 {
		e.occ[node] &^= 1 << qIdx
	} else if !moved {
		q.settle(e.par.EscapeDelay)
	}
	return moved
}

// noteBlocked starts the escape-eligibility clock for a packet that failed
// arbitration, and guarantees a retry once the clock expires. qCount and win
// describe the queue the packet sits in (depth and arbitration lookahead) so
// the observer can tell a lone stalled packet from true head-of-line
// blocking with victims waiting behind the window.
func (e *engine) noteBlocked(node int32, rf *pktRef, qCount, win int32) {
	if rf.blocked == 0 {
		rf.blocked = e.now
	}
	if e.obs != nil {
		e.obs.OnBlocked(e.now, node, rf.inDir(), rf.vc(), rf.want, rf.blocked, qCount, win)
	}
	// Re-arm the escape-maturity wakeup on every failed pass: a coalesced
	// earlier wakeup will land here again and reschedule, so the chain
	// always reaches the maturity time even when individual events are
	// dropped by coalescing.
	if mature := rf.blocked + e.par.EscapeDelay; mature > e.now {
		e.scheduleService(node, mature, rf.want)
	}
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
		e.contTok, e.entTok = e.tokMasks(node)
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
				var q *pktQueue
				if idx < numDirs*NumVC {
					q = &r.in[idx/NumVC][idx%NumVC]
				} else {
					q = &r.inj[idx-numDirs*NumVC]
				}
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
					if qa := q.quietAt; qa != 0 && qa <= e.now && q.winOR&freeMask == 0 && e.obs == nil {
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

// creditUpstream returns the token for the input VC slot that a departing
// packet occupied at node (cost = vcCost of the packet). The token lands at
// the upstream router CreditDelay later as an evCredit event (which also
// runs an arbitration pass there); inDir is the direction of the input
// port, i.e. the direction from this node toward the upstream sender.
func (e *engine) creditUpstream(node int32, inDir, vc int8, cost int32) {
	up := e.nbrs[linkIdx(node, int(inDir))]
	if up < 0 {
		panic("network: credit for nonexistent upstream link")
	}
	e.sendCredit(up, oppositeDir(int(inDir)), vc, cost)
}

// tryRoute attempts to start the queued packet rf on an output link of node
// whose bit is set in freeMask. On success the packet is committed to the
// wire (arrival event scheduled) and the granted direction is returned; the
// caller pops it from its queue. Returns -1 on failure. Candidate selection
// runs entirely on the queue-slot header; the packet pool and the queue's
// id ring (rf sits at q slot qi) are loaded only to commit a grant, so
// failed attempts stay off those cache lines.
func (e *engine) tryRoute(node int32, rf *pktRef, q *pktQueue, qi int32, freeMask uint8) int {
	lnk := linkIdx(node, 0)
	inDir := rf.inDir()
	toks := e.tok[lnk*NumVC : (lnk+numDirs)*NumVC]
	injTok := e.par.InjectTokens
	// Adaptive candidates on the dynamic VCs (JSQ on tokens). A grant only
	// requires one flit-credit (32 bytes) free: with virtual cut-through
	// and flit-granular flow control a packet may stream into a buffer
	// that is draining concurrently, so occupancy can overshoot by up to
	// one packet (the overshoot models stalled bytes held on the upstream
	// wire). Tokens go negative to bound the overshoot.
	// Candidate outputs on the dynamic VCs. Adaptive packets may take any
	// profitable direction (JSQ across the dynamic VCs); deterministic
	// packets are restricted to strict dimension order (first unfinished
	// dimension only) but still use the dynamic channels - a packet-atomic
	// simulation of the pure bubble-VC deterministic mode degenerates into
	// slot-conveyor throughput that flit-level hardware does not exhibit.
	bestDir, bestVC, bestTok := -1, -1, int32(-1<<30)
	escJoining := false
	for d := torus.Dim(0); d < torus.NumDims; d++ {
		h := rf.hops[d]
		if h == 0 {
			continue
		}
		o := dirOf(d, int(h))
		if freeMask&(1<<o) != 0 {
			// Packets continuing along the same dimension stream on a
			// single flit-credit; packets entering a dimension (turns and
			// injections) need InjectTokens free. Giving dimension-
			// continuing traffic priority keeps free slack circulating
			// along each dimension chain instead of being swallowed by
			// entrants, which would collapse saturated chains into a
			// one-hole conveyor.
			need := int32(PacketGranule)
			if (inDir < 0 || dimOfDir(int(inDir)) != d) && injTok > need {
				need = injTok
			}
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
		// Bubble escape: a last resort for packets that have been blocked
		// here longer than EscapeDelay.
		if rf.blocked == 0 || e.now-rf.blocked < e.par.EscapeDelay {
			return -1
		}
		// Strict dimension order (X, then Y, then Z).
		var o = -1
		for d := torus.Dim(0); d < torus.NumDims; d++ {
			if rf.hops[d] != 0 {
				o = dirOf(d, int(rf.hops[d]))
				break
			}
		}
		if o < 0 || freeMask&(1<<o) == 0 {
			return -1
		}
		// The bubble rule, slot-quantized: a packet continuing around the
		// same ring needs one free slot; a packet joining the ring (from an
		// injection FIFO, a dynamic VC, or another dimension) must leave a
		// free full-packet bubble, i.e. needs two.
		need := int32(MaxPacketBytes)
		joining := rf.vc() != VCBubble || inDir < 0 || dimOfDir(int(inDir)) != dimOfDir(o)
		if joining {
			need += MaxPacketBytes
		}
		if toks[o*NumVC+VCBubble] < need {
			return -1
		}
		bestDir, bestVC, escJoining = o, VCBubble, joining
	}

	o, vc := bestDir, bestVC
	size := int32(rf.size)
	e.tok[(lnk+o)*NumVC+vc] -= vcCost(int8(vc), size)
	if e.par.Check && vc == VCBubble {
		e.checkBubbleGrant(node, o, escJoining, e.tok[(lnk+o)*NumVC+vc])
	}
	// Wire occupancy: size bytes at one unit per byte, stretched on a
	// degraded link (FaultDegrade). Stretch only ever lengthens occupancy,
	// so every cross-node delay keeps its healthy minimum and the sharded
	// window stays safe. A grant onto a down link is impossible by
	// construction (freeOutputs masks it); the checker re-verifies.
	wire := int64(size)
	if e.faulty {
		if s := e.stretch[lnk+o]; s > 1 {
			wire *= int64(s)
		}
		if e.par.Check && e.deadMask[node]&(1<<o) != 0 {
			e.checkLiveGrant(node, o)
		}
	}
	busyUntil := e.now + wire
	e.outBusy[lnk+o] = busyUntil
	e.stats.LinkBusy[lnk+o] += wire
	e.stats.GrantsByVC[vc]++
	if e.obs != nil {
		e.obs.OnGrant(e.now, node, o, int8(vc), size)
	}
	pid := q.idAt(qi)
	p := &e.pkts[pid] // grant commit: the packet now changes state
	d := dimOfDir(o)
	if p.hops[d] > 0 {
		p.hops[d]--
	} else {
		p.hops[d]++
	}
	p.vc = int8(vc)
	p.inDir = int8(oppositeDir(o))
	p.blocked = 0
	p.want = wantMask(p.hops, p.det)
	// Virtual cut-through: a transit packet is eligible for its next hop as
	// soon as its 32-byte header chunk lands; only at its final hop (where
	// it is consumed) must the tail arrive first. The outgoing link can
	// start re-serializing immediately because all links run at the same
	// rate, so bytes arrive exactly as they are needed. That equal-rate
	// argument fails on a degraded link (a full-speed downstream hop would
	// outrun the trickling tail), so stretched transfers forward
	// store-and-forward: the tail's arrival defines eligibility.
	eta := e.now + wire + e.par.RouterDelay
	if p.want != 0 && !e.par.StoreForward && wire == int64(size) {
		eta = e.now + PacketGranule + e.par.RouterDelay
	}
	// The link-free wakeup is a hard deadline: an earlier coalesced pass
	// would find the link still busy and discover nothing, so it cannot be
	// merged into the soft-coalescing slot. It can, however, share one event
	// with any other link of this node freeing on the same tick: the
	// dispatch (serviceGroup) re-derives the freed set from the busy times.
	// If some other direction already ends at busyUntil, its grant pushed
	// the shared event - a link ending on a future tick cannot have been
	// re-granted, so that event is still pending - and this push is elided.
	dup := false
	for d := 0; d < numDirs; d++ {
		if d != o && e.outBusy[lnk+d] == busyUntil {
			dup = true
			break
		}
	}
	if !dup {
		e.evq.push(mkEvent(busyUntil, node, 1<<o, evService))
	}
	e.sendArrive(eta, e.nbrs[lnk+o], pid, p)
	return o
}

// maybeRunCPU starts a CPU operation at node if the CPU is idle and work is
// available. Reception and injection (software forwards, then fresh source
// packets) are serviced in alternation - a strict receive-first policy
// would starve the forwarding half of indirect strategies and serialize
// their phases - except that a half-full reception FIFO always takes
// priority so the network keeps draining.
func (e *engine) maybeRunCPU(node int32) {
	r := &e.routers[node]
	if r.cpuBusy {
		return
	}
	preferRecv := !r.cpuToggle || 2*r.recv.bytes >= e.par.RecvFIFOBytes
	if preferRecv && e.tryRecvOp(node, r) {
		return
	}
	if e.tryInjectOp(node, r) {
		return
	}
	if !preferRecv {
		e.tryRecvOp(node, r)
	}
}

// tryRecvOp starts a reception CPU operation if one is pending.
func (e *engine) tryRecvOp(node int32, r *router) bool {
	if r.recv.empty() {
		return false
	}
	pid := r.recv.peek()
	p := &e.pkts[pid]
	r.recv.pop(p.size)
	fw, extra, final := e.nw.handler.OnDeliver(Delivered{
		Node: node, Src: p.src, Aux: p.aux, Size: p.size,
		Payload: p.payload, Enq: p.enq, Kind: p.kind,
	}, r.curFw[:0])
	r.curFw = fw
	r.curOp = opRecv
	r.curPkt = pid
	r.curFinal = final
	e.startCPUOp(node, r, e.par.CPUCost(p.size)+extra)
	// Reception FIFO space freed: blocked VC heads may now sink.
	e.scheduleService(node, e.now, maskRecv)
	return true
}

// tryInjectOp starts an injection CPU operation: a pending software forward
// first, else the next packet from the source.
func (e *engine) tryInjectOp(node int32, r *router) bool {
	if len(r.pendingFw) > 0 {
		spec := r.pendingFw[0]
		fifo := int(spec.Class) % len(r.inj)
		if !r.inj[fifo].fits(spec.Size) {
			// The CPU waits for this FIFO; it is re-kicked when the FIFO
			// drains (see tryQueue). Fresh injections stay queued behind
			// the forward, preserving ordering.
			return false
		}
		copy(r.pendingFw, r.pendingFw[1:])
		r.pendingFw = r.pendingFw[:len(r.pendingFw)-1]
		r.curOp = opInject
		r.curSpec = spec
		e.startCPUOp(node, r, e.par.CPUCost(spec.Size)+spec.ExtraCPU)
		return true
	}
	if r.srcDone {
		return false
	}
	if !r.pendValid {
		spec, status, when := e.nw.sources[node].Next(e.now)
		switch status {
		case SrcDone:
			r.srcDone = true
			e.activeSrc--
			return false
		case SrcWait:
			e.evq.push(mkEvent(when, node, 0, evCPUKick))
			return false
		case SrcReady:
			r.pendSrc = spec
			r.pendValid = true
		}
	}
	spec := r.pendSrc
	fifo := int(spec.Class) % len(r.inj)
	if !r.inj[fifo].fits(spec.Size) {
		return false // re-kicked when the FIFO drains
	}
	r.pendValid = false
	r.curOp = opInject
	r.curSpec = spec
	e.startCPUOp(node, r, e.par.CPUCost(spec.Size)+spec.ExtraCPU)
	return true
}

func (e *engine) startCPUOp(node int32, r *router, cost int64) {
	if cost < 1 {
		cost = 1
	}
	r.cpuBusy = true
	r.cpuToggle = !r.cpuToggle
	r.cpuEnd = e.now + cost
	e.stats.CPUBusy[node] += cost
	if e.obs != nil {
		e.obs.OnCPU(e.now, node, cost)
	}
	e.evq.push(mkEvent(r.cpuEnd, node, 0, evCPUKick))
}

// cpuDoneOrKick completes the current CPU operation (if one is running and
// due) and then tries to start the next one.
func (e *engine) cpuDoneOrKick(node int32) {
	r := &e.routers[node]
	if r.cpuBusy {
		if e.now < r.cpuEnd {
			// A stale wait-kick (e.g. a throttle expiry scheduled before the
			// current op started); the op's own completion kick will follow.
			return
		}
		e.finishCPUOp(node, r)
	}
	e.maybeRunCPU(node)
}

func (e *engine) finishCPUOp(node int32, r *router) {
	switch r.curOp {
	case opRecv:
		pid := r.curPkt
		p := &e.pkts[pid]
		e.stats.noteDelivery(e.now, p, r.curFinal)
		e.inFlight--
		e.freePacket(pid)
		if len(r.curFw) > 0 {
			r.pendingFw = append(r.pendingFw, r.curFw...)
			r.curFw = r.curFw[:0]
			if len(r.pendingFw) > e.stats.MaxPendingFw {
				e.stats.MaxPendingFw = len(r.pendingFw)
			}
		}
	case opInject:
		spec := r.curSpec
		pid := e.allocPkt()
		p := &e.pkts[pid]
		*p = packet{
			dst: spec.Dst, src: node, size: spec.Size, payload: spec.Payload,
			aux: spec.Aux, enq: e.now, hops: e.nw.routeHops(node, spec.Dst),
			vc: -1, inDir: -1, det: spec.Det, kind: spec.Kind,
		}
		p.want = wantMask(p.hops, p.det)
		if spec.Dst == node {
			panic("network: self-addressed packet")
		}
		if e.faulty {
			e.rerouteFresh(node, p) // route starts on a dead link: flip now
		}
		e.inFlight++
		e.stats.PacketsInjected++
		e.stats.WireBytesInjected += int64(spec.Size)
		e.stats.LastInject = e.now
		fifo := int(spec.Class) % len(r.inj)
		q := &r.inj[fifo]
		q.push(&e.nw.rings, pktRef{size: int16(p.size), hops: p.hops, vcIn: packVCIn(-1, -1),
			want: p.want, det: p.det}, pid, spec.Size)
		if e.obs != nil {
			e.obs.OnInjFIFO(node, fifo, q.bytes)
		}
		e.occ[node] |= 1 << (numDirs*NumVC + fifo)
		// Only the freshly injected packet is a new candidate; a targeted
		// attempt on its FIFO suffices (it only helps if it reached the
		// FIFO head).
		if q.count == 1 {
			freeMask := e.freeOutputs(node)
			e.contTok, e.entTok = e.tokMasks(node)
			e.tryQueue(node, r, q, numDirs*NumVC+fifo, &freeMask, maskAll)
		}
	}
	r.cpuBusy = false
	r.curOp = opNone
}
