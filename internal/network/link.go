package network

// The link and buffer model: where whole packets stand in for BG/L's 32-byte
// flits. Each packet-atomic compensation of the links and buffers (DESIGN §2)
// is read in exactly one function here (TestCompensationSeam), so a
// sub-packet model changes these bodies, not engine.go's arbitration; the
// per-packet ones must stay small enough to inline (CI checks the compiler).

// vcCost returns the buffer/token cost of a packet on a virtual channel (vc
// -1: an injection FIFO, charged its wire bytes). Dynamic VCs use byte
// accounting with flit-credit streaming (grants may overshoot, modelling
// cut-through into a draining buffer). The bubble escape VC accounts whole
// max-packet slots with no overshoot: Puente's bubble invariant (one free
// packet slot always remains on each ring) needs local free space to
// lower-bound ring free space, which overshoot or sub-packet fragmentation
// would break and deadlock the escape path.
func vcCost(vc int8, size int32) int32 {
	if vc == VCBubble {
		return MaxPacketBytes
	}
	return size
}

// window returns the arbitration lookahead of an input VC: VCLookahead on
// the dynamic channels, strict FIFO on the bubble escape (as on injection
// FIFOs). Queues carry it as pktQueue.win.
func (p Params) window(vc int8) int32 {
	if vc == VCDyn0 || vc == VCDyn1 {
		return p.VCLookahead
	}
	return 1
}

// admit queues pool packet pid, whose header p is settled, on q: an input VC
// (p.vc >= 0) or an injection FIFO (p.vc == -1), charging its slot cost.
func (e *engine) admit(q *pktQueue, p *packet, pid int32) {
	q.push(&e.nw.rings, pktRef{size: int16(p.size), hops: p.hops, vcIn: packVCIn(p.vc, p.inDir),
		want: p.want, det: p.det}, pid, vcCost(p.vc, p.size))
}

// release removes entry i of q, the packet ref departing node, and frees the
// space it held: an input VC's slot cost goes back to the upstream router as
// tokens, landing CreditDelay later as an evCredit event (which also runs an
// arbitration pass there); an injection FIFO's space frees at once, so the
// CPU may inject again. Returns the packet's pool index.
func (e *engine) release(node int32, q *pktQueue, i int32, ref pktRef) int32 {
	vc, inDir := ref.vc(), ref.inDir()
	cost := vcCost(vc, int32(ref.size))
	pid := q.removeAt(i, cost)
	if inDir < 0 {
		e.maybeRunCPU(node)
		return pid
	}
	// inDir is the input port's direction, i.e. toward the upstream sender.
	up := e.nbrs[linkIdx(node, int(inDir))]
	if up < 0 {
		panic("network: credit for nonexistent upstream link")
	}
	e.sendCredit(up, oppositeDir(int(inDir)), vc, cost)
	return pid
}

// grantTokens is the free space a dynamic VC must hold for a grant. A packet
// continuing along its input dimension streams on one flit-credit: with
// virtual cut-through and flit-granular flow control it may enter a buffer
// that is draining concurrently, so occupancy overshoots by up to one packet
// (bytes held on the upstream wire) and tokens go negative to bound it. A
// packet entering a dimension (a turn or an injection) needs InjectTokens
// free: that priority for through traffic keeps slack circulating along each
// dimension chain instead of being swallowed by entrants, which would
// collapse saturated chains into a one-hole conveyor.
func (e *engine) grantTokens(entering bool) int32 {
	if entering {
		return max(e.par.InjectTokens, PacketGranule)
	}
	return PacketGranule
}

// bubbleTokens is the bubble rule, slot-quantized: the escape-VC space a
// grant needs. A packet continuing around the same ring needs one free slot;
// a packet joining the ring (from an injection FIFO, a dynamic VC, or another
// dimension) must leave a free full-packet bubble, i.e. needs two.
func bubbleTokens(joining bool) int32 {
	if joining {
		return 2 * MaxPacketBytes
	}
	return MaxPacketBytes
}

// escapeAt is when a packet that first failed arbitration at blocked may
// fall back to the bubble escape VC.
func (e *engine) escapeAt(blocked int64) int64 {
	return blocked + e.par.EscapeDelay
}

// escapeReady reports whether rf's escape clock has started and matured.
func (e *engine) escapeReady(rf *pktRef) bool {
	return rf.blocked != 0 && e.now >= e.escapeAt(rf.blocked)
}

// noteBlocked starts the escape clock for a packet that failed arbitration,
// and guarantees a retry once the clock matures. qCount and win describe the
// queue the packet sits in (depth and arbitration lookahead) so the observer
// can tell a lone stalled packet from true head-of-line blocking with
// victims waiting behind the window.
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
	if mature := e.escapeAt(rf.blocked); mature > e.now {
		e.scheduleService(node, mature, rf.want)
	}
}

// grant commits the packet at slot qi of q to output o of node on VC vc:
// the downstream VC's tokens are debited, the wire is occupied, and the
// packet advances one hop, arriving when it becomes eligible at the next
// node. joining says whether an escape grant joins its ring (for the checker).
func (e *engine) grant(node int32, q *pktQueue, qi int32, o, vc int, size int32, joining bool) {
	lnk := linkIdx(node, 0)
	tok := &e.tok[(lnk+o)*NumVC+vc]
	*tok -= vcCost(int8(vc), size)
	if e.check {
		if vc == VCBubble {
			e.checkBubbleGrant(node, o, joining, *tok)
		}
		// A grant onto a down link is impossible by construction
		// (freeOutputs masks it); the checker re-verifies.
		if e.faulty && e.deadMask[node]&(1<<o) != 0 {
			e.checkLiveGrant(node, o)
		}
	}
	wire, busyUntil := e.occupy(lnk+o, size)
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
	eta := e.eligibleAt(wire, size, p.want != 0)
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
}

// occupy holds output link (a linkIdx) for a size-byte packet granted now:
// one unit per byte, stretched on a degraded link (FaultDegrade). Stretch
// only ever lengthens occupancy, so every cross-node delay keeps its healthy
// minimum and the sharded window stays safe. Returns the wire time and the
// tick the link frees.
func (e *engine) occupy(link int, size int32) (wire, until int64) {
	wire = int64(size)
	if e.faulty {
		if s := e.stretch[link]; s > 1 {
			wire *= int64(s)
		}
	}
	until = e.now + wire
	e.outBusy[link] = until
	e.stats.LinkBusy[link] += wire
	return wire, until
}

// eligibleAt is when a packet granted now, holding its link for wire units,
// may arbitrate at the next node. Virtual cut-through: a transit packet is
// eligible as soon as its 32-byte header chunk lands; only at its final hop
// (where it is consumed) must the tail arrive first. The outgoing link can
// start re-serializing immediately because all links run at the same rate,
// so bytes arrive exactly as they are needed. That equal-rate argument fails
// on a degraded link (a full-speed downstream hop would outrun the trickling
// tail), so stretched transfers forward store-and-forward: the tail's
// arrival defines eligibility.
func (e *engine) eligibleAt(wire int64, size int32, transit bool) int64 {
	if transit && !e.par.StoreForward && wire == int64(size) {
		return e.now + PacketGranule + e.par.RouterDelay
	}
	return e.now + wire + e.par.RouterDelay
}

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
// direction: contTok has bit o set when some dynamic VC of output o passes
// grantTokens for traffic continuing along its input dimension, entTok the
// same for traffic entering a dimension. tryQueue's certain-failure gate
// reads them: ~95% of arbitration visits fail, and the masks keep those
// failures off the token array's cache lines, paying the 12 loads once per
// pass instead of per queued packet.
func (e *engine) tokMasks(node int32) (contTok, entTok uint8) {
	base := linkIdx(node, 0) * NumVC
	toks := e.tok[base : base+numDirs*NumVC]
	contNeed, entNeed := e.grantTokens(false), e.grantTokens(true)
	for o := 0; o < numDirs; o++ {
		hi := max(toks[o*NumVC], toks[o*NumVC+1])
		if hi >= contNeed {
			contTok |= 1 << o
		}
		if hi >= entNeed {
			entTok |= 1 << o
		}
	}
	return
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
