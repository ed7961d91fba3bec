package network

import (
	"errors"
	"fmt"
	"sync"

	"alltoall/internal/parallel"
	"alltoall/internal/torus"
)

// ErrCanceled is wrapped by the error a run aborted through its context
// (RunSpec.Ctx) returns; test with errors.Is.
var ErrCanceled = errors.New("network: run canceled")

// ErrMaxTime is wrapped by the error a run returns when simulated time
// exceeds the caller's MaxTime bound before the workload completes (a stall,
// a collapsed configuration, or simply too small a bound); test with
// errors.Is.
var ErrMaxTime = errors.New("network: exceeded max time")

// Directions: 2*dim + 0 is the + direction, 2*dim + 1 is the - direction.
const numDirs = 6

func dirOf(dim torus.Dim, sign int) int {
	if sign > 0 {
		return 2 * int(dim)
	}
	return 2*int(dim) + 1
}

func dimOfDir(dir int) torus.Dim { return torus.Dim(dir / 2) }

func signOfDir(dir int) int {
	if dir%2 == 0 {
		return 1
	}
	return -1
}

func oppositeDir(dir int) int { return dir ^ 1 }

// PacketSpec describes a packet to inject.
type PacketSpec struct {
	Dst      int32 // destination rank
	Size     int32 // wire bytes, MinPacketBytes..MaxPacketBytes
	Payload  int32 // application payload bytes carried (bookkeeping only)
	Aux      int32 // strategy cookie (e.g. final destination for TPS phase 1)
	ExtraCPU int64 // additional CPU time to charge on injection (alpha, copies)
	Det      bool  // deterministic dimension-ordered routing (no adaptivity)
	Class    int8  // injection FIFO class; mapped onto FIFOs modulo Params.InjFIFOs
	Kind     uint8 // strategy-defined packet kind
}

// SrcStatus is the result of polling a Source.
type SrcStatus uint8

const (
	// SrcReady means the returned spec should be injected now.
	SrcReady SrcStatus = iota
	// SrcWait means nothing to inject until the returned time (throttling).
	SrcWait
	// SrcDone means the source has no further packets, ever.
	SrcDone
)

// Source produces the injection schedule for one node. The network polls it
// whenever the node's CPU is free and the relevant injection FIFO has room.
//
// Sharded runs poll each node's source from the worker that owns the node,
// so a Source must only touch state private to its node (per-node value
// copies are fine; a structure shared across nodes is not, unless it is
// immutable after construction).
type Source interface {
	Next(now int64) (PacketSpec, SrcStatus, int64)
}

// Delivered describes a packet handed to the CPU at its destination.
type Delivered struct {
	Node    int32 // node at which the packet was received
	Src     int32 // original injecting node
	Aux     int32
	Size    int32
	Payload int32
	Enq     int64 // injection timestamp
	Kind    uint8
}

// Handler observes deliveries and implements software forwarding: the
// specs appended to fw are re-injected from the receiving node (charging the
// CPU for each). extraCPU is added to the CPU receive cost (e.g. the VMesh
// sort/copy gamma term). final marks packets that complete the collective
// (they count toward FinishTime).
//
// OnDeliver for node n runs on the worker that owns n in a sharded run, so
// handler state must be partitioned by node (e.g. per-node slices indexed by
// d.Node); cross-node shared counters would race.
type Handler interface {
	OnDeliver(d Delivered, fw []PacketSpec) (fwOut []PacketSpec, extraCPU int64, final bool)
}

// packet is the in-flight representation. Slots are pooled per engine.
type packet struct {
	dst     int32
	src     int32
	size    int32
	payload int32
	aux     int32
	enq     int64
	blocked int64 // time this packet first failed arbitration here (0 = never)
	hops    [3]int8
	vc      int8  // VC occupied at the current node's input; -1 if in an injection FIFO
	inDir   int8  // input direction at the current node; -1 if in an injection FIFO
	want    uint8 // bitmask of output directions this packet can use next
	det     bool
	kind    uint8
}

// wantMask computes the output directions a packet can take given its
// remaining hops: every profitable direction for adaptive packets, only the
// first dimension-order direction for deterministic ones.
func wantMask(hops [3]int8, det bool) uint8 {
	var m uint8
	for d := torus.Dim(0); d < torus.NumDims; d++ {
		if h := hops[d]; h != 0 {
			m |= 1 << dirOf(d, int(h))
			if det {
				break
			}
		}
	}
	return m
}

type cpuOp uint8

const (
	opNone cpuOp = iota
	opRecv
	opInject
)

type router struct {
	in   [numDirs][NumVC]pktQueue
	inj  []pktQueue
	recv pktQueue

	pendingFw []PacketSpec // software forwards awaiting CPU injection
	pendSrc   PacketSpec   // one-slot buffer for a polled-but-unplaced source spec
	pendValid bool

	cpuBusy   bool
	cpuEnd    int64
	cpuToggle bool // alternate reception and injection service fairly
	curOp     cpuOp
	curPkt    int32
	curSpec   PacketSpec
	curFw     []PacketSpec
	curFinal  bool

	srcDone  bool
	rrCursor uint32
}

// queue returns the router's queue behind occupancy bit idx (the occ array):
// the input VCs by direction then VC, then the injection FIFOs.
func (r *router) queue(idx int) *pktQueue {
	if idx < numDirs*NumVC {
		return &r.in[idx/NumVC][idx%NumVC]
	}
	return &r.inj[idx-numDirs*NumVC]
}

// Hot per-node router state lives outside the router struct in flat
// structure-of-arrays layout: the arbitration loop touches the output busy
// times, credit counters, neighbour table, and occupancy mask on every
// event, and packing each field contiguously by node keeps those accesses
// on a handful of cache lines instead of striding through ~200-byte router
// structs. The arrays are indexed with linkIdx/tokIdx and are naturally
// shard-partitioned: engines own contiguous rank slabs, so two shards only
// ever share the cache line straddling a slab boundary (the same discipline
// as Stats.LinkBusy).

// linkIdx indexes per-(node, direction) arrays (outBusy, nbrs).
func linkIdx(node int32, d int) int { return int(node)*numDirs + d }

// tokIdx indexes the per-(node, direction, VC) credit array.
func tokIdx(node int32, d, vc int) int { return (int(node)*numDirs+d)*NumVC + vc }

// Network is a simulated torus machine. Event processing lives in engine:
// RunSharded partitions the nodes across one or more of them (see shard.go).
type Network struct {
	Shape torus.Shape
	P     int
	Par   Params

	routers []router
	coords  []torus.Coord
	rings   ringSlab // storage behind every queue's ring (queue.go)

	// SoA router state (see the comment above linkIdx).
	outBusy []int64  // [linkIdx] output-link busy-until time; maxInt64 where no link exists
	tok     []int32  // [tokIdx] credits for the neighbour's input VC via this output
	tokMask []uint16 // [node] token-mask word: see tokMasks
	nbrs    []int32  // [linkIdx] neighbour rank per output direction, -1 at mesh edges
	occ     []uint32 // [node] bit per non-empty queue (18 input VCs, then injection FIFOs)
	svcAt   []int64  // [node] time of the pending coalesced service pass, if any
	svcMask []uint8  // [node] wake-reason bits of that pass; bit 7 (svcPendBit) = pending

	// Fault-injection state (see fault.go): the canonical (sorted, validated)
	// schedule of the current run and the node-partitioned link SoA the
	// engines mutate as transitions apply. The arrays are nil until a
	// schedule is first installed; a healthy network never allocates or
	// touches them.
	fsched    []FaultEvent
	deadMask  []uint8
	killMask  []uint8
	stretch   []int32
	downSince []int64

	sources []Source
	handler Handler

	stats Stats // of the last successful run, merged over the engines

	// engines own contiguous node slabs covering [0, P); New builds one and
	// ensureShards re-slices when a run asks for a different count.
	engines []engine
	barrier *parallel.Barrier
	workers sync.WaitGroup // engines 1.. of the run in progress
}

// New builds a network for the given shape with per-node sources and a
// delivery handler. sources may contain nil entries (nodes that inject
// nothing). handler must not be nil.
func New(shape torus.Shape, par Params, sources []Source, handler Handler) (*Network, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if err := par.validate(); err != nil {
		return nil, err
	}
	p := shape.P()
	nw := &Network{
		Shape:   shape,
		P:       p,
		Par:     par,
		routers: make([]router, p),
		coords:  make([]torus.Coord, p),
	}
	nw.stats.LinkBusy = make([]int64, p*numDirs)
	nw.stats.CPUBusy = make([]int64, p)
	nw.outBusy = make([]int64, p*numDirs)
	nw.tok = make([]int32, p*numDirs*NumVC)
	nw.tokMask = make([]uint16, p)
	nw.nbrs = make([]int32, p*numDirs)
	nw.occ = make([]uint32, p)
	nw.svcAt = make([]int64, p)
	nw.svcMask = make([]uint8, p)
	for n := 0; n < p; n++ {
		nw.coords[n] = shape.Coords(n)
	}
	// Pass 1: resolve the neighbour table and count live links, so the
	// initial ring of every queue in the machine can be carved from one
	// contiguous chunk in node order (see ringSlab).
	links := 0
	for n := 0; n < p; n++ {
		for d := 0; d < numDirs; d++ {
			nc, ok := shape.Neighbor(nw.coords[n], dimOfDir(d), signOfDir(d))
			if !ok {
				nw.nbrs[linkIdx(int32(n), d)] = -1
				continue
			}
			nw.nbrs[linkIdx(int32(n), d)] = int32(shape.Rank(nc))
			links++
		}
	}
	// Every VC can overshoot capacity by one max packet (flit-credit
	// streaming grants); its byte budget allows for it.
	vcCap := par.VCBytes + MaxPacketBytes
	slots := int(ringSlots(vcCap))*links*NumVC +
		p*(int(ringSlots(par.InjFIFOBytes))*par.InjFIFOs+int(ringSlots(par.RecvFIFOBytes)))
	nw.rings.refs = make([]pktRef, slots)
	nw.rings.ids = make([]int32, slots)
	for n := 0; n < p; n++ {
		r := &nw.routers[n]
		for d := 0; d < numDirs; d++ {
			if nw.nbrs[linkIdx(int32(n), d)] < 0 {
				continue
			}
			for vc := 0; vc < NumVC; vc++ {
				r.in[d][vc] = newPktQueue(&nw.rings, vcCap, par.window(int8(vc)))
			}
		}
		r.inj = make([]pktQueue, par.InjFIFOs)
		for i := range r.inj {
			r.inj[i] = newPktQueue(&nw.rings, par.InjFIFOBytes, 1)
		}
		r.recv = newPktQueue(&nw.rings, par.RecvFIFOBytes, 1)
	}
	nw.ensureShards(1)
	// Everything a run starts from - tokens, lookaheads, the source census -
	// is Reset's to install, here as on every recycle.
	if err := nw.Reset(sources, handler); err != nil {
		return nil, err
	}
	return nw, nil
}

// Reset returns the network to its initial state for a fresh run on the same
// shape and parameters, reusing the router, queue, packet-pool, and event-
// queue allocations of the previous run. Sweeps that revisit one shape at
// many message sizes avoid rebuilding the whole machine at every point.
// sources may contain nil entries (nodes that inject nothing); handler must
// not be nil.
func (nw *Network) Reset(sources []Source, handler Handler) error {
	if handler == nil {
		return fmt.Errorf("network: nil handler")
	}
	if sources != nil && len(sources) != nw.P {
		return fmt.Errorf("network: %d sources for %d nodes", len(sources), nw.P)
	}
	nw.sources = sources
	nw.handler = handler
	for i := range nw.engines {
		nw.engines[i].resetRunState()
	}
	nw.stats.reset()
	nw.resetFaultState()
	for n := 0; n < nw.P; n++ {
		r := &nw.routers[n]
		for d := 0; d < numDirs; d++ {
			if nw.nbrs[linkIdx(int32(n), d)] < 0 {
				// Parked busy forever: freeOutputs never sees it free, so
				// it needs no neighbour-table load.
				nw.outBusy[linkIdx(int32(n), d)] = maxInt64
				continue
			}
			nw.outBusy[linkIdx(int32(n), d)] = 0
			for vc := 0; vc < NumVC; vc++ {
				r.in[d][vc].reset(nw.Par.window(int8(vc)))
				nw.tok[tokIdx(int32(n), d, vc)] = nw.Par.VCBytes
			}
		}
		for i := range r.inj {
			r.inj[i].reset(1)
		}
		r.recv.reset(1)
		r.pendingFw = r.pendingFw[:0]
		r.pendSrc = PacketSpec{}
		r.pendValid = false
		r.cpuBusy = false
		r.cpuEnd = 0
		r.cpuToggle = false
		r.curOp = opNone
		r.curPkt = 0
		r.curSpec = PacketSpec{}
		r.curFw = r.curFw[:0]
		r.curFinal = false
		nw.svcAt[n] = 0
		nw.svcMask[n] = 0
		nw.occ[n] = 0
		r.rrCursor = 0
		r.srcDone = sources == nil || sources[n] == nil
	}
	return nil
}

// Now returns the current simulation time (the furthest engine's clock).
func (nw *Network) Now() int64 {
	var t int64
	for i := range nw.engines {
		t = max(t, nw.engines[i].now)
	}
	return t
}

// Stats returns a snapshot of the statistics of the last completed run (the
// engines' shares are merged when a run succeeds). The snapshot is the
// caller's to keep: it does not alias live engine state, so it stays valid
// (and harmless to mutate) across a later Reset or run on the same network.
func (nw *Network) Stats() *Stats { return nw.stats.clone() }

// routeHops computes the signed per-dimension hop vector for a packet from
// src to dst. Exact half-ring ties on even torus dimensions are split by
// (src+dst) parity so that the all-to-all load is balanced across both
// directions.
func (nw *Network) routeHops(src, dst int32) [3]int8 {
	a, b := nw.coords[src], nw.coords[dst]
	var h [3]int8
	for d := torus.Dim(0); d < torus.NumDims; d++ {
		delta := nw.Shape.Delta(d, a[d], b[d])
		k := nw.Shape.Size[d]
		if nw.Shape.Wrap[d] && k%2 == 0 && (delta == k/2 || delta == -k/2) {
			// Half-ring ties: split by source parity so the aggregate
			// all-to-all load lands evenly on both ring directions.
			if src%2 == 1 {
				delta = -k / 2
			} else {
				delta = k / 2
			}
		}
		h[d] = int8(delta)
	}
	return h
}

// Run drives the simulation on one engine, with no observer, checker, faults
// or cancellation, until all sources are done and all packets are delivered,
// or until maxTime is exceeded. It returns the completion time.
func (nw *Network) Run(maxTime int64) (int64, error) {
	t, _, err := nw.RunSharded(RunSpec{MaxTime: maxTime, Shards: 1})
	return t, err
}
