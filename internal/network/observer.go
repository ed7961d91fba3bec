package network

import "alltoall/internal/torus"

// NumDirs is the number of output directions per router (two per torus
// dimension; dir = 2*dim for the + direction, 2*dim+1 for the -).
const NumDirs = numDirs

// Observer taps the simulator's hot path for instrumentation: per-link and
// per-VC traffic, head-of-line blocking, FIFO depths, and CPU occupancy.
// Install one with Network.SetObserver before a run.
//
// The contract mirrors the invariant checker's: an observer may only record,
// never perturb - the simulation's event sequence, statistics, and handler
// observations must be byte-identical with and without one installed. When
// no observer is installed the hot path pays one predicted nil-check branch
// per hook site (the same bar as Params.Check).
//
// Sharding: each engine (shard) requests its own Sink and calls it only from
// the worker goroutine that owns the shard's node range, so a Sink needs no
// locking as long as any state shared between sinks is partitioned by node
// (shards own disjoint node ranges). EndRun is called once, after all
// workers have quiesced, and is where per-shard state is folded into run
// totals; folding in shard order keeps aggregation deterministic.
type Observer interface {
	// BeginRun announces a run on the given machine. Called once per
	// Run/RunSharded, before any event is processed. A recycled network
	// (Reset) calls it again for each new run; observers that should
	// accumulate across phases or sweep points simply keep their counters.
	BeginRun(shape torus.Shape, par Params)

	// Sink returns the event sink for one engine covering nodes [lo, hi).
	// A one-engine run requests a single sink (shard 0 of 1).
	Sink(shard, shards int, lo, hi int32) Sink

	// EndRun marks a successful run completion at the given finish time.
	// Failed runs (stall, cancellation, invariant violation) skip it.
	EndRun(finish int64)
}

// Sink receives the per-event callbacks for one engine. All times are in
// simulation units; node/dir/vc follow the router's conventions (dir/2 is
// the torus dimension, vc is a VC* constant or -1 for injection FIFOs).
type Sink interface {
	// OnGrant fires when a packet wins an output link: size wire bytes on
	// direction dir of node, on virtual channel vc.
	OnGrant(now int64, node int32, dir int, vc int8, size int32)

	// OnBlocked fires each arbitration pass in which an eligible packet
	// failed to move (wanted links busy, or insufficient credits). inDir/vc
	// locate the queue the packet occupies (-1/-1 for an injection FIFO),
	// want is its desired-output bitmask, since the time it first blocked
	// here, qCount the queue's depth and win the arbitration lookahead -
	// qCount > win means further packets are stuck behind the window
	// (head-of-line victims).
	OnBlocked(now int64, node int32, inDir, vc int8, want uint8, since int64, qCount, win int32)

	// OnInjFIFO fires after a packet enters an injection FIFO, with the
	// FIFO's resulting byte occupancy.
	OnInjFIFO(node int32, fifo int, bytes int32)

	// OnRecvFIFO fires after a packet enters the reception FIFO, with the
	// FIFO's resulting byte occupancy.
	OnRecvFIFO(node int32, bytes int32)

	// OnCPU fires when a CPU operation starts at node, charging cost units.
	OnCPU(now int64, node int32, cost int64)
}

// FaultSink is an optional extension of Sink. A sink that also implements it
// receives every effective fault transition (a Down/Kill that actually took a
// live link out, an Up that actually restored one, every Degrade) at the
// simulation time it applied. Transitions arrive on the owning shard's
// goroutine, like every other Sink callback; scheduled transitions that
// change nothing (a second Down on an already-dead link, an Up on a killed
// one) are not reported. Sinks that do not implement FaultSink simply never
// hear about faults - the extension keeps existing Sink implementations
// source-compatible.
type FaultSink interface {
	OnFault(now int64, node int32, dir int, action FaultAction, factor int32)
}

// SetObserver installs (or, with nil, removes) the observer for subsequent
// runs. Must not be called while a run is in progress. The observer is
// preserved across Reset: recycled sweep runs keep reporting to it.
func (nw *Network) SetObserver(obs Observer) { nw.observer = obs }
