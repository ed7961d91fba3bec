package network

import (
	"cmp"
	"context"
	"fmt"
	"sync"
	"unsafe"

	"alltoall/internal/parallel"
)

// A run is a conservative time-windowed parallel simulation: nodes are
// partitioned into contiguous rank slabs, each advanced by its own engine
// over a private event queue, all in lockstep. Within a window of
// width shardSafeWindow no shard can affect another - every cross-shard
// effect travels with a known minimum delay (PacketGranule+RouterDelay for
// packet arrivals, CreditDelay for token returns) - so an event generated
// inside the window [T, T+W) lands at T+W or later. Cross-shard events go
// into per-shard-pair mailboxes drained at the window barrier; because the
// event order is a strict total order on (t, node, kind, arg) and arrival
// args are pid-independent (see heap.go), the pop sequence - and therefore
// every handler call, statistic, and the finish time - is byte-identical at
// any shard count, one included (a single slab whose window never closes).

// xmsg is one cross-shard effect: a packet arrival (kind evArrive, packet
// carried by value; the destination shard re-homes it into its own pool) or
// a credit return (kind evCredit, arg as in creditArg).
type xmsg struct {
	t    int64
	node int32
	arg  int32
	kind uint8
	pkt  packet
}

// shardSafeWindow is the minimum delay of any cross-node interaction: the
// provably safe lockstep window. A non-positive result (degenerate
// parameters) disables sharding.
func shardSafeWindow(par Params) int64 {
	w := int64(PacketGranule) + par.RouterDelay
	if par.CreditDelay < w {
		w = par.CreditDelay
	}
	return w
}

// SyncStats reports the barrier protocol's counters for one successful run
// (RunSharded returns them). They describe how the run was scheduled, not
// what it simulated, which is why they live outside Stats: the byte-identity
// oracles DeepEqual Stats across shard counts, and these are exactly the part
// that differs.
type SyncStats struct {
	// Shards is the engine count of the run, after clamping (1 for a
	// one-engine run, whose other counters are all zero).
	Shards int
	// HorizonAdvances counts processed windows, summed over shards.
	HorizonAdvances int64
	// BlockedWaits counts barrier crossings, summed over shards.
	BlockedWaits int64
	// BlockedWaitNs is wall time spent waiting at barriers, summed over
	// shards. Only waits that outlast the barrier's spin phase are timed
	// (parallel.Barrier.Await), so it reads what shard imbalance costs and
	// leaves near-simultaneous crossings free.
	BlockedWaitNs int64
	// CrossShardEvents / CrossShardBytes count the arrivals and credits, and
	// their in-memory message bytes, that crossed a shard boundary.
	CrossShardEvents int64
	CrossShardBytes  int64
}

// Add accumulates o into s, for a caller that reads several runs' counters
// through one SyncStats: counters sum and Shards takes o's value.
func (s *SyncStats) Add(o *SyncStats) {
	s.Shards = o.Shards
	s.HorizonAdvances += o.HorizonAdvances
	s.BlockedWaits += o.BlockedWaits
	s.BlockedWaitNs += o.BlockedWaitNs
	s.CrossShardEvents += o.CrossShardEvents
	s.CrossShardBytes += o.CrossShardBytes
}

// ensureShards re-slices the machine into s engines when the last run used a
// different count; a repeated count keeps the engines, and with them every
// allocation a run grew, so cached sweeps stay allocation-free.
func (nw *Network) ensureShards(s int) {
	if len(nw.engines) == s {
		return
	}
	nw.engines = make([]engine, s)
	var shardOf []int16 // nil on one engine: every destination is local
	if s > 1 {
		shardOf = make([]int16, nw.P)
	}
	for i := range nw.engines {
		e := &nw.engines[i]
		e.init(nw, int32(i), int32(nw.P*i/s), int32(nw.P*(i+1)/s))
		if s > 1 {
			e.shardOf = shardOf
			e.out = make([][]xmsg, s)
			for n := e.lo; n < e.hi; n++ {
				shardOf[n] = int16(i)
			}
		}
	}
	nw.barrier = parallel.NewBarrier(s)
}

// Auto-sharding thresholds (RunSharded with Shards == 0). Below
// autoShardNodes a run stays on one engine: its windows hold too little work
// to pay for two barrier crossings each. From there a run takes at least two
// engines, which is 1.4-1.8x faster on the paper's 128- and 256-node
// partitions (EXPERIMENTS.md, "Shards by shape"); above 256 nodes every engine
// keeps at least nodesPerShard routers, and maxAutoShards bounds what one run
// takes however many cores there are.
const (
	autoShardNodes = 128
	nodesPerShard  = 128
	maxAutoShards  = 8
)

// RunSpec is one run's settings. The Network keeps none of them, so a
// recycled machine never carries a previous run's.
type RunSpec struct {
	MaxTime int64 // simulated-time bound; a run past it fails with ErrMaxTime
	Shards  int   // engines: n >= 1 runs exactly n, 0 lets RunSharded decide

	// Ctx, when done, stops the run at its next cancellation point (every
	// window barrier, and every few thousand events inside a window) with an
	// error wrapping ErrCanceled; marked parallel.WithCore, its pool worker's
	// core is the run's first engine. nil = context.Background().
	Ctx      context.Context
	Observer Observer       // the instrumentation tap (see observer.go); nil = off
	Check    bool           // the runtime invariant checker (see invariant.go)
	Faults   *FaultSchedule // the link-fault schedule (see fault.go); nil = healthy
}

// RunSharded is the one driver of a simulation: the torus is partitioned into
// contiguous node slabs, each advanced by its own engine in lockstep barrier
// windows, engine 0 on the calling goroutine. Output - completion time,
// statistics, handler observations - is byte-identical at any engine count.
// It returns the completion time and the run's synchronization counters. The
// fault schedule is validated (FaultSchedule.Validate) and installed before
// any core is claimed; an invalid one fails the run on a healthy network.
//
// rs.Shards says how many engines: n >= 1 runs exactly n (clamped to the node
// count), and 0 lets the engine decide, here and nowhere else - one engine
// below autoShardNodes nodes, otherwise min(max(2, P/nodesPerShard),
// maxAutoShards) but no more than the cores nothing else in this process is
// using (parallel.ClaimCores; every run registers its engines there, and
// every pool worker its core, for as long as it runs, so concurrent runs and
// busy pools see each other; a run on a pool worker, per its context, counts
// the worker's core as its first engine). One engine (also the outcome of a
// degenerate configuration whose safe window would be empty) runs the same
// loop: its single window is the whole run, nothing crosses a boundary and
// no goroutine starts.
func (nw *Network) RunSharded(rs RunSpec) (int64, SyncStats, error) {
	if err := nw.installFaults(rs.Faults); err != nil {
		return 0, SyncStats{}, err
	}
	ctx := cmp.Or(rs.Ctx, context.Background())
	window := shardSafeWindow(nw.Par)
	shards := rs.Shards
	auto := shards == 0
	if auto && nw.P >= autoShardNodes {
		shards = min(max(2, nw.P/nodesPerShard), maxAutoShards)
	}
	shards = max(1, min(shards, nw.P))
	if window <= 0 {
		shards = 1
	}
	held := parallel.HeldCores(ctx)
	if auto {
		shards = parallel.ClaimCores(shards, held)
	} else {
		parallel.UseCores(shards - held)
	}
	defer parallel.ReleaseCores(shards - held)
	if shards == 1 {
		window = maxInt64
	}
	nw.ensureShards(shards)
	if rs.Observer != nil {
		rs.Observer.BeginRun(nw.Shape, nw.Par)
	}
	for i := range nw.engines {
		e := &nw.engines[i]
		e.obs = nil
		if rs.Observer != nil {
			e.obs = rs.Observer.Sink(i, shards, e.lo, e.hi)
		}
		e.cancel, e.check = ctx.Done(), rs.Check
		e.activeSrc = 0
		for n := e.lo; n < e.hi; n++ {
			// The token-mask words follow tok from here on (noteTokens);
			// Reset, a previous phase or a test may have rewritten tok.
			for o := 0; o < numDirs; o++ {
				e.noteTokens(n, o)
			}
			if !nw.routers[n].srcDone {
				e.activeSrc++
			}
		}
	}
	nw.workers.Add(shards - 1)
	for i := 1; i < shards; i++ {
		go nw.engines[i].run(rs.MaxTime, window, &nw.workers)
	}
	nw.engines[0].run(rs.MaxTime, window, nil)
	nw.workers.Wait()

	ss := SyncStats{Shards: shards}
	var inFlight int64
	activeSrc := 0
	for i := range nw.engines {
		e := &nw.engines[i]
		if e.err != nil {
			return 0, SyncStats{}, e.err
		}
		inFlight += e.inFlight
		activeSrc += e.activeSrc
		if shards > 1 { // one engine synchronizes with nobody: its counters read zero
			ss.HorizonAdvances += e.syncAdvances
			ss.BlockedWaits += e.syncWaits
			ss.BlockedWaitNs += e.syncWaitNs
			ss.CrossShardEvents += e.syncXEv
		}
	}
	ss.CrossShardBytes = ss.CrossShardEvents * int64(unsafe.Sizeof(xmsg{}))
	if inFlight != 0 || activeSrc != 0 {
		return 0, SyncStats{}, fmt.Errorf("network: stalled at t=%d with %d packets in flight, %d active sources (deadlock?)",
			nw.Now(), inFlight, activeSrc)
	}
	for i := range nw.engines {
		nw.stats.merge(nw.engines[i].stats)
	}
	nw.closeFaultStats()
	if rs.Check {
		// After the merge so the exactly-once ledger sees machine totals.
		if err := nw.checkQuiescence(); err != nil {
			return 0, SyncStats{}, err
		}
	}
	if rs.Observer != nil {
		rs.Observer.EndRun(nw.stats.FinishTime)
	}
	return nw.stats.FinishTime, ss, nil
}

// run is one engine's worker. All engines execute the same barrier sequence
// and compute the window decision from identical published state, so they
// exit on the same iteration and the barrier count stays balanced.
//
// The memory discipline: a shard's outboxes and its err/inMin fields are
// written only in the drain span (between the window barrier and the next
// inMin barrier), in which no other shard reads them; the barrier's atomics
// order every write before a crossing against every read after it. A window
// error therefore cannot be published from inside processUntil - the other
// shards are concurrently reading err for the same iteration's exit vote -
// so it is staged in pend and published at the top of the next iteration.
func (e *engine) run(maxTime, window int64, wg *sync.WaitGroup) {
	if wg != nil {
		defer wg.Done()
	}
	nw := e.nw
	e.armFaults(maxTime)
	for n := e.lo; n < e.hi; n++ {
		e.maybeRunCPU(n)
	}
	e.await() // initial injections scheduled; outboxes stable (empty)
	var pend error
	for {
		// The loop top is inside the drain span (between the window barrier
		// and the next inMin barrier), the only region where this shard may
		// publish err - which is also what makes it the cancellation point:
		// every shard sees the same signal and votes to fail together.
		if pend == nil && e.cancel != nil {
			select {
			case <-e.cancel:
				pend = fmt.Errorf("%w at t=%d (window barrier)", ErrCanceled, e.now)
			default:
			}
		}
		if pend != nil {
			if e.err == nil {
				e.err = pend
			}
			pend = nil
		}
		e.drainInboxes()
		if e.evq.len() > 0 {
			e.inMin = e.evq.top().t
		} else {
			e.inMin = maxInt64
		}
		e.await() // inMin published, all inboxes drained
		gmin := maxInt64
		fail := false
		for i := range nw.engines {
			o := &nw.engines[i]
			if o.err != nil {
				fail = true
			}
			if o.inMin < gmin {
				gmin = o.inMin
			}
		}
		if fail || gmin == maxInt64 {
			return
		}
		tend := maxInt64 // one engine: the whole run is its only window
		if window < maxInt64 {
			tend = gmin + window
		}
		if err := e.processUntil(tend, maxTime); err != nil {
			pend = err
		}
		e.syncAdvances++
		e.await() // window processed; outboxes and err published
	}
}

// await crosses the window barrier, counting the crossing and any timed wait.
func (e *engine) await() {
	e.syncWaits++
	e.syncWaitNs += int64(e.nw.barrier.Await())
}

// drainInboxes moves every message other shards addressed to this one onto
// the local queue. Arrivals are re-homed into this engine's packet pool; the
// pool-slot number never influences event order (heap.go), so the transfer
// is invisible to the simulation.
func (e *engine) drainInboxes() {
	for i := range e.nw.engines {
		if int32(i) == e.id {
			continue
		}
		src := &e.nw.engines[i]
		box := src.out[e.id]
		for j := range box {
			m := &box[j]
			if e.check && e.err == nil {
				// The window protocol's whole correctness argument: every
				// cross-shard effect must land at or after this shard's
				// clock. A violation is published at the next barrier.
				if v := e.checkInbound(m); v != nil {
					e.err = v
				}
			}
			if m.kind == evArrive {
				pid := e.allocPkt()
				e.pkts[pid] = m.pkt
				e.inFlight++
				e.evq.push(mkEvent(m.t, m.node, arriveArg(m.pkt.inDir, pid), evArrive))
			} else {
				e.evq.push(mkEvent(m.t, m.node, m.arg, evCredit))
			}
		}
		src.out[e.id] = box[:0]
	}
}
