package network

import "slices"

// The CPU model: one serial server per node that receives packets from the
// reception FIFO (handing them to the Handler, which may ask for software
// forwards) and injects packets into the injection FIFOs (pending forwards
// first, then the node's Source). An operation on a packet of S bytes costs
// CPUCost(S) plus any extra charge the strategy asks for.

// recvFirst reports whether the CPU at r tries reception before injection.
// Reception and injection (software forwards, then fresh source packets) are
// serviced in alternation - a strict receive-first policy would starve the
// forwarding half of indirect strategies and serialize their phases - except
// that a reception FIFO at least half full always takes priority so the
// network keeps draining (DESIGN §2 mechanism 8).
func (e *engine) recvFirst(r *router) bool {
	return !r.cpuToggle || 2*r.recv.bytes >= e.par.RecvFIFOBytes
}

// maybeRunCPU starts a CPU operation at node if the CPU is idle and work is
// available, in recvFirst's order.
func (e *engine) maybeRunCPU(node int32) {
	r := &e.routers[node]
	if r.cpuBusy {
		return
	}
	preferRecv := e.recvFirst(r)
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
	r.curPkt = pid
	r.curFinal = final
	e.startCPUOp(node, r, opRecv, e.par.CPUCost(p.size)+extra)
	// Reception FIFO space freed: blocked VC heads may now sink.
	e.scheduleService(node, e.now, maskRecv)
	return true
}

// tryInjectOp starts an injection CPU operation: a pending software forward
// first, else the next packet from the source. Either waits, with the CPU
// free for reception, until its injection FIFO has room; the CPU is re-kicked
// when a FIFO drains (see tryQueue). Fresh injections stay queued behind a
// waiting forward, preserving ordering.
func (e *engine) tryInjectOp(node int32, r *router) bool {
	fw := len(r.pendingFw) > 0
	if !fw && !r.pendValid { // poll the source into its one-slot buffer
		if r.srcDone {
			return false
		}
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
	if fw {
		spec = r.pendingFw[0]
	}
	if !r.inj[int(spec.Class)%len(r.inj)].fits(spec.Size) {
		return false
	}
	if fw {
		r.pendingFw = slices.Delete(r.pendingFw, 0, 1)
	} else {
		r.pendValid = false
	}
	r.curSpec = spec
	e.startCPUOp(node, r, opInject, e.par.CPUCost(spec.Size)+spec.ExtraCPU)
	return true
}

func (e *engine) startCPUOp(node int32, r *router, op cpuOp, cost int64) {
	if cost < 1 {
		cost = 1
	}
	r.curOp = op
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
		e.admit(q, p, pid)
		if e.obs != nil {
			e.obs.OnInjFIFO(node, fifo, q.bytes)
		}
		e.pushed(node, r, q, numDirs*NumVC+fifo)
	}
	r.cpuBusy = false
	r.curOp = opNone
}
