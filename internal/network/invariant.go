package network

import "alltoall/internal/check"

// Runtime invariant checking (the conformance layer's enforcement half).
//
// When the checker is on (RunSpec.Check), every event dispatch is followed
// by a validation of the router it touched (events mutate only node-local
// router state, so checking the event's node covers every mutation),
// cross-shard mailbox messages are checked against the receiving shard's
// clock, and a completed run must pass a full-machine quiescence audit. All checks are behind a
// single predictable branch per event so the hot path stays branch-cheap
// when checking is off.

// checkNode validates the event-granularity invariants of one router:
// credit bounds per (direction, VC), bubble slot integrity, FIFO occupancy
// bounds, absent links parked busy forever, and the coherence of the
// arbitration indexes (occupancy mask, token-mask word). Returns nil when
// everything holds.
func (e *engine) checkNode(node int32) *check.Violation {
	r := &e.routers[node]
	vcb := e.par.VCBytes
	for d := 0; d < numDirs; d++ {
		if e.nbrs[linkIdx(node, d)] < 0 {
			// freeOutputs reads no neighbour table: a mesh edge that ever
			// read free would grant onto a link that is not there.
			if busy := e.outBusy[linkIdx(node, d)]; busy != maxInt64 {
				return check.Violatef(check.LinkLiveness, node, e.now,
					"absent link %s reads busy until %d, not parked busy forever", DirName(d), busy)
			}
			continue
		}
		for vc := 0; vc < NumVC; vc++ {
			tok := e.tok[tokIdx(node, d, vc)]
			if tok > vcb {
				return check.Violatef(check.CreditConservation, node, e.now,
					"dir %d vc %d holds %d tokens, capacity %d (credit counterfeited)", d, vc, tok, vcb)
			}
			q := &r.in[d][vc]
			if vc == VCBubble {
				// Puente's rule: escape tokens are whole max-packet slots.
				if tok < 0 {
					return check.Violatef(check.BubbleSlots, node, e.now,
						"dir %d escape VC token balance %d < 0 (bubble slot underflow)", d, tok)
				}
				if tok%MaxPacketBytes != 0 {
					return check.Violatef(check.BubbleSlots, node, e.now,
						"dir %d escape VC token balance %d fragments the %d-byte slot quantum", d, tok, MaxPacketBytes)
				}
				if q.bytes > vcb {
					return check.Violatef(check.FIFOOccupancy, node, e.now,
						"dir %d escape VC holds %d bytes, capacity %d (no overshoot allowed)", d, q.bytes, vcb)
				}
			} else {
				// Flit-credit streaming: a grant needs one free granule and
				// may overshoot by at most MaxPacketBytes-PacketGranule.
				if tok < PacketGranule-MaxPacketBytes {
					return check.Violatef(check.CreditConservation, node, e.now,
						"dir %d vc %d token balance %d below the streaming floor %d", d, vc, tok, PacketGranule-MaxPacketBytes)
				}
				if q.bytes > vcb+MaxPacketBytes-PacketGranule {
					return check.Violatef(check.FIFOOccupancy, node, e.now,
						"dir %d vc %d holds %d bytes, capacity %d + overshoot bound %d",
						d, vc, q.bytes, vcb, MaxPacketBytes-PacketGranule)
				}
			}
		}
	}
	for i := range r.inj {
		if q := &r.inj[i]; q.bytes > e.par.InjFIFOBytes {
			return check.Violatef(check.FIFOOccupancy, node, e.now,
				"injection FIFO %d holds %d bytes, capacity %d", i, q.bytes, e.par.InjFIFOBytes)
		}
	}
	if r.recv.bytes > e.par.RecvFIFOBytes {
		return check.Violatef(check.FIFOOccupancy, node, e.now,
			"reception FIFO holds %d bytes, capacity %d", r.recv.bytes, e.par.RecvFIFOBytes)
	}
	// The arbitration index must agree with the queues: a stale set bit
	// wastes service passes, a stale clear bit starves a queue forever.
	for idx := 0; idx < numDirs*NumVC+len(r.inj); idx++ {
		q := r.queue(idx)
		if got, want := e.occ[node]&(1<<idx) != 0, q.count > 0; got != want {
			return check.Violatef(check.OccupancyMask, node, e.now,
				"queue %d: occMask bit %v but count %d", idx, got, q.count)
		}
	}
	// So must the token masks: a stale set bit calls tryRoute for a grant
	// it cannot make (harmless), a stale clear bit skips one it could.
	if got, want := e.tokMask[node], e.tokMaskRef(node); got != want {
		return check.Violatef(check.OccupancyMask, node, e.now,
			"token-mask word %#04x, recomputed from the tokens %#04x", got, want)
	}
	return nil
}

// tokMaskRef recomputes node's token-mask word (see tokMasks) from the token
// array, the reference checkNode holds the word noteTokens keeps against.
func (e *engine) tokMaskRef(node int32) uint16 {
	base := linkIdx(node, 0) * NumVC
	toks := e.tok[base : base+numDirs*NumVC]
	contNeed, entNeed := e.grantTokens(false), e.grantTokens(true)
	var w uint16
	for o := 0; o < numDirs; o++ {
		hi := max(toks[o*NumVC], toks[o*NumVC+1])
		if hi >= contNeed {
			w |= 1 << o
		}
		if hi >= entNeed {
			w |= 1 << (8 + o)
		}
	}
	return w
}

// checkBubbleGrant re-verifies Puente's invariant immediately after an
// escape-channel grant: a continuing packet may consume the last free slot's
// predecessor but never go negative; a joining packet must leave at least
// one whole free bubble behind on the ring it entered.
func (e *engine) checkBubbleGrant(node int32, o int, joining bool, rem int32) {
	floor := int32(0)
	if joining {
		floor = MaxPacketBytes
	}
	if rem < floor && e.vio == nil {
		e.vio = check.Violatef(check.BubbleSlots, node, e.now,
			"escape grant on dir %d (joining=%v) left %d token bytes, bubble rule requires >= %d",
			o, joining, rem, floor)
	}
}

// checkInbound validates a cross-shard message against the receiving
// engine's clock: the windowed protocol guarantees every cross-shard effect
// lands at or after the receiver's current time (that lookahead is the
// sharded engine's entire correctness argument).
func (e *engine) checkInbound(m *xmsg) *check.Violation {
	if m.t < e.now {
		return check.Violatef(check.MonotonicTime, m.node, e.now,
			"cross-shard %s scheduled at t=%d behind the receiving shard's clock %d (window lookahead violated)",
			eventKindName(m.kind), m.t, e.now)
	}
	return nil
}

func eventKindName(kind uint8) string {
	switch kind {
	case evArrive:
		return "arrival"
	case evService:
		return "service"
	case evCPUKick:
		return "cpu-kick"
	case evCredit:
		return "credit"
	case evFault:
		return "fault"
	}
	return "event"
}

// checkLiveGrant records a grant onto a down link: freeOutputs masks dead
// directions out of every arbitration path, so reaching here means the
// masking chokepoint was bypassed. Called from grant when the checker is on
// in a faulted run.
func (e *engine) checkLiveGrant(node int32, o int) {
	if e.vio == nil {
		e.vio = check.Violatef(check.LinkLiveness, node, e.now,
			"grant onto down link %s (dead mask %#x)", DirName(o), e.deadMask[node])
	}
}

// checkFaultQuiescence audits the fault state after a completed run: outage
// bookkeeping must be coherent (every down direction has an open outage
// interval, every up one does not - credits crossed down/up transitions
// without losing the books), and no degraded link carries a nonsensical
// stretch.
func (nw *Network) checkFaultQuiescence(now int64) error {
	if len(nw.fsched) == 0 {
		return nil
	}
	for n := 0; n < nw.P; n++ {
		node := int32(n)
		for d := 0; d < numDirs; d++ {
			lnk := linkIdx(node, d)
			down := nw.deadMask[n]&(1<<d) != 0
			if open := nw.downSince[lnk] >= 0; open != down {
				return check.Violatef(check.LinkLiveness, node, now,
					"link %s: down=%v but outage-open=%v (DeadLinkTicks books broken)", DirName(d), down, open)
			}
			if nw.killMask[n]&(1<<d) != 0 && !down {
				return check.Violatef(check.LinkLiveness, node, now,
					"link %s: killed but not down (revived past a kill)", DirName(d))
			}
			if s := nw.stretch[lnk]; s < 1 || s > MaxDegradeFactor {
				return check.Violatef(check.LinkLiveness, node, now,
					"link %s: stretch factor %d out of range", DirName(d), s)
			}
		}
	}
	return nil
}

// checkQuiescence audits the whole machine after a completed run: every
// FIFO empty, every credit back home, no CPU or forwarding work pending,
// and the delivery ledger balanced (every injected packet delivered exactly
// once). Called only when the checker is on, after per-shard statistics
// are merged.
func (nw *Network) checkQuiescence() error {
	now := nw.Now()
	for n := range nw.routers {
		r := &nw.routers[n]
		node := int32(n)
		for d := 0; d < numDirs; d++ {
			if nw.nbrs[linkIdx(node, d)] < 0 {
				continue
			}
			for vc := 0; vc < NumVC; vc++ {
				if tok := nw.tok[tokIdx(node, d, vc)]; tok != nw.Par.VCBytes {
					return check.Violatef(check.Quiescence, node, now,
						"dir %d vc %d ended with %d tokens, capacity %d (stranded credits)", d, vc, tok, nw.Par.VCBytes)
				}
				if q := &r.in[d][vc]; q.count != 0 || q.bytes != 0 {
					return check.Violatef(check.Quiescence, node, now,
						"dir %d vc %d ended with %d packets / %d bytes queued", d, vc, q.count, q.bytes)
				}
			}
		}
		for i := range r.inj {
			if q := &r.inj[i]; q.count != 0 || q.bytes != 0 {
				return check.Violatef(check.Quiescence, node, now,
					"injection FIFO %d ended with %d packets / %d bytes", i, q.count, q.bytes)
			}
		}
		if r.recv.count != 0 || r.recv.bytes != 0 {
			return check.Violatef(check.Quiescence, node, now,
				"reception FIFO ended with %d packets / %d bytes", r.recv.count, r.recv.bytes)
		}
		if len(r.pendingFw) != 0 {
			return check.Violatef(check.Quiescence, node, now,
				"%d software forwards never re-injected", len(r.pendingFw))
		}
		if r.cpuBusy {
			return check.Violatef(check.Quiescence, node, now, "CPU still busy at end of run")
		}
		if r.pendValid {
			return check.Violatef(check.Quiescence, node, now, "polled source packet never injected")
		}
		if nw.occ[n] != 0 {
			return check.Violatef(check.Quiescence, node, now,
				"occupancy mask %#x nonzero over empty queues", nw.occ[n])
		}
	}
	if st := &nw.stats; st.PacketsInjected != st.TotalDelivered {
		return check.Violatef(check.Quiescence, -1, now,
			"%d packets injected but %d delivered (exactly-once broken)", st.PacketsInjected, st.TotalDelivered)
	}
	return nw.checkFaultQuiescence(now)
}
