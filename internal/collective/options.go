package collective

import (
	"context"
	"fmt"
	"os"

	"alltoall/internal/model"
	"alltoall/internal/network"
	"alltoall/internal/observe"
	"alltoall/internal/torus"
)

// Strategy names the all-to-all algorithms from the paper.
type Strategy string

const (
	StratAR       Strategy = "AR"       // direct, adaptive routing (Section 3)
	StratDR       Strategy = "DR"       // direct, deterministic routing (Section 3.2)
	StratThrottle Strategy = "Throttle" // AR paced to the bisection rate (Section 3.2)
	StratMPI      Strategy = "MPI"      // production MPI-style baseline
	StratTPS      Strategy = "TPS"      // Two Phase Schedule (Section 4.1)
	StratVMesh    Strategy = "VMesh"    // 2D virtual-mesh combining (Section 4.2)
	StratXYZ      Strategy = "XYZ"      // 3-phase dimension-ordered indirect (Section 4.1's comparator)
)

// Options configures an all-to-all run.
type Options struct {
	Shape    torus.Shape
	MsgBytes int    // per-pair payload m, >= 1
	Seed     uint64 // randomization seed for destination orders

	// Burst is the number of packets injected per destination visit in the
	// direct strategies (the paper's tuning parameter; usually 1 or 2).
	Burst int

	// PaceBurst is the injection token-bucket depth in packets (default 8).
	// Every strategy paces injection at the partition's bisection rate; the
	// Throttle strategy uses a zero-depth (strict) bucket. See pacer.go for
	// why pacing is always on in this substrate.
	PaceBurst int

	// PaceFraction scales the injection rate relative to the bisection
	// limit (default 0.95). Slightly under 1 keeps bottleneck links at the
	// knee of their throughput curve.
	PaceFraction float64

	// Unpaced disables injection pacing entirely (ablation only; expect
	// congestion collapse on saturating workloads).
	Unpaced bool

	Par   network.Params // zero value: network.DefaultParams()
	Calib model.Calib    // zero value: model.DefaultCalib()

	// Check enables the simulator's runtime invariant checker (equivalent
	// to setting Par.Check): every event is validated against the machine's
	// conservation laws and a completed run must reach full quiescence. A
	// violation fails the run with a node/time-stamped diagnostic. Costs
	// roughly 1.4x simulation time; meant for tests and CI, not sweeps.
	Check bool

	// Faults installs a deterministic link-fault schedule (equivalent to
	// setting Par.Faults, but composes with a defaulted Par): links go down,
	// come back, die permanently, or degrade at scheduled times, and packets
	// reroute via the adaptive paths and the escape bubble channel. Results
	// stay byte-identical at any shard count. Multi-phase strategies (TPS,
	// VMesh, XYZ) restart the clock each phase, so the schedule re-applies
	// from t=0 per phase. nil (or an empty schedule) faults nothing and is
	// byte-identical to a run without this option.
	Faults *network.FaultSchedule

	// TPSLinear forces the Two Phase Schedule's linear (phase 1) dimension;
	// nil selects it with the paper's rule (symmetric planar dims if
	// possible, else the longest dimension).
	TPSLinear *torus.Dim

	// TPSCreditWindow, when positive, enables the paper's Section 5
	// credit-based flow control for TPS: each source may have at most this
	// many un-credited phase-1 packets outstanding at each intermediate,
	// bounding intermediate forwarding memory. Must be >= TPSCreditBatch.
	TPSCreditWindow int

	// TPSCreditBatch is the number of forwarded packets per returned
	// credit packet (default 10, the paper's ~1% bandwidth overhead).
	TPSCreditBatch int

	// VMeshRows/Cols force the virtual mesh factorization P = Cols x Rows
	// (Pvx = Cols row width, Pvy = Rows column height); 0 selects the most
	// balanced factorization.
	VMeshRows, VMeshCols int

	// VMeshMapOrder chooses which torus dimension consecutive virtual ranks
	// sweep first (default X, Y, Z: rows fill X-lines, then XY planes). The
	// paper's 4096-node experiment maps 128-wide rows onto XZ planes, i.e.
	// order X, Z, Y.
	VMeshMapOrder *[3]torus.Dim

	// MaxTime aborts runs that exceed this many time units (0 = generous
	// default based on the peak time).
	MaxTime int64

	// Shards > 1 runs the simulation on the window-parallel sharded engine
	// with that many workers (see network.RunSharded); results are
	// byte-identical to the serial engine. 0 or 1 selects the serial
	// engine. Use run-level parallelism (experiments.Config.Workers) when
	// there are enough runs to fill the cores; shards help when a single
	// large run is the bottleneck.
	Shards int

	// Cache, when non-nil, lets Run recycle the simulation network across
	// runs that share a shape and machine parameters (message-size sweeps):
	// the network is Reset instead of rebuilt, reusing its router, queue,
	// packet-pool, and event-queue allocations. A cache must not be shared
	// between concurrent runs; give each worker goroutine its own.
	Cache *NetCache

	// DebugDump, when non-empty, names a file to which the full network
	// state is written if a run stalls or exceeds MaxTime (diagnostics).
	DebugDump string

	// DetRouting forces deterministic dimension-ordered routing for runs
	// whose workload does not already fix the routing mode. Only pattern
	// runs (traffic.RunOpts / alltoall.RunPatternContext) consult it; the
	// collective strategies choose routing per strategy (DR is the
	// deterministic one) and ignore this field.
	DetRouting bool

	// Observer, when non-nil, taps the simulation for instrumentation
	// (typically an *observe.Collector). Multi-phase strategies report each
	// phase as one observed run to the same observer. When the observer is
	// an observe.Collector, Result.Observed carries its summary.
	Observer network.Observer

	// SyncStats, when non-nil, receives the sharded engine's synchronization
	// counters for the run (windows, barrier crossings, cross-shard traffic;
	// multi-phase strategies accumulate across phases). Machinery like
	// Observer, not workload configuration: the counters depend on the
	// shard count, which is why they are an out-parameter rather than
	// Result fields - Result stays a pure function of the request.
	SyncStats *network.SyncStats

	// cancel, when non-nil, aborts the run when closed; set from a
	// context's Done channel by RunContext. The serial engine polls it
	// between events, the sharded engine at window barriers.
	cancel <-chan struct{}
}

func (o *Options) fill() error {
	if err := o.Shape.Validate(); err != nil {
		return err
	}
	if o.MsgBytes < 1 {
		return fmt.Errorf("collective: MsgBytes must be >= 1, got %d", o.MsgBytes)
	}
	if o.Burst == 0 {
		o.Burst = 2
	}
	if o.Burst < 0 {
		return fmt.Errorf("collective: negative Burst")
	}
	if o.PaceBurst == 0 {
		o.PaceBurst = 2
	}
	if o.PaceBurst < 0 {
		return fmt.Errorf("collective: negative PaceBurst")
	}
	if o.PaceFraction == 0 {
		o.PaceFraction = 0.95
	}
	if o.PaceFraction < 0 || o.PaceFraction > 1 {
		return fmt.Errorf("collective: PaceFraction %v out of (0,1]", o.PaceFraction)
	}
	o.Par = o.NetParams()
	if o.Calib == (model.Calib{}) {
		o.Calib = model.DefaultCalib()
	}
	if o.MaxTime == 0 {
		peak := o.Shape.PeakTime(o.MsgBytes)
		o.MaxTime = int64(peak*100) + int64(o.Shape.P())*(o.Calib.AlphaMsg+o.Calib.AlphaMPI)*64 + 1<<24
	}
	return nil
}

// NetParams returns the effective machine parameters for this run: Par
// defaulted to network.DefaultParams, with the Check and Faults conveniences
// folded in. It is the one place run options become network.Params; fill
// applies it and pattern runs (internal/traffic) share it.
func (o *Options) NetParams() network.Params {
	p := o.Par
	if p == (network.Params{}) {
		p = network.DefaultParams()
	}
	if o.Check {
		p.Check = true
	}
	if o.Faults != nil {
		p.Faults = o.Faults
	}
	return p
}

// dumpOnError writes the network state to o.DebugDump when a run failed.
func (o *Options) dumpOnError(nw *network.Network, err error) {
	if err == nil || o.DebugDump == "" {
		return
	}
	f, ferr := os.Create(o.DebugDump)
	if ferr != nil {
		return
	}
	defer f.Close()
	nw.DumpState(f)
}

// NetCache is a one-slot cache of a simulation network. Sweeps that revisit
// one (shape, params) configuration at many message sizes pass the same
// cache through Options so each point reuses the previous network's
// allocations via Network.Reset. The zero value is ready to use.
type NetCache struct {
	nw *network.Network
}

// network returns a simulator for this run, recycling the cached instance
// when its shape and parameters match and allocating (and caching) a fresh
// one otherwise.
func (o *Options) network(sources []network.Source, h network.Handler) (*network.Network, error) {
	if c := o.Cache; c != nil && c.nw != nil && c.nw.Shape == o.Shape {
		if c.nw.Par == o.Par {
			if err := c.nw.Reset(sources, h); err != nil {
				return nil, err
			}
			return o.instrument(c.nw), nil
		}
		if c.nw.Par.SameStructure(o.Par) {
			// Same buffer geometry, different runtime knobs (delays, CPU
			// rate, checking, faults): ResetParams re-derives the engines'
			// cached state instead of rebuilding the machine.
			if err := c.nw.ResetParams(o.Par, sources, h); err != nil {
				return nil, err
			}
			return o.instrument(c.nw), nil
		}
	}
	nw, err := network.New(o.Shape, o.Par, sources, h)
	if err != nil {
		return nil, err
	}
	if o.Cache != nil {
		o.Cache.nw = nw
	}
	return o.instrument(nw), nil
}

// instrument installs this run's observer and cancellation channel on a
// network returned by o.network. Set explicitly every run (including to
// nil) so cached networks never leak a previous run's observer.
func (o *Options) instrument(nw *network.Network) *network.Network {
	nw.SetObserver(o.Observer)
	nw.SetCancel(o.cancel)
	return nw
}

// runNet drives one simulation with this run's engine selection: the
// sharded engine when Shards > 1, the serial engine otherwise. Sync-layer
// counters accumulate into o.SyncStats when requested (per phase for
// multi-phase strategies, which call runNet once per phase).
func (o *Options) runNet(nw *network.Network) (int64, error) {
	t, err := nw.RunSharded(o.MaxTime, o.Shards)
	if err == nil && o.SyncStats != nil {
		ss := nw.SyncStats()
		o.SyncStats.Add(&ss)
	}
	return t, err
}

// pacer builds the injection governor for this run; strict drops the burst
// window (the Throttle strategy).
func (o *Options) pacer(strict bool) pacer {
	if o.Unpaced {
		return pacer{}
	}
	burst := o.PaceBurst
	if strict {
		burst = 0
	}
	return newPacer(o.Shape, burst, o.PaceFraction)
}

// Result reports one all-to-all run.
type Result struct {
	Strategy Strategy
	Shape    torus.Shape
	MsgBytes int

	Time        int64   // completion time, units
	Seconds     float64 // completion time, seconds (calibrated)
	PeakTime    float64 // Equation 2 peak time, units
	PercentPeak float64 // 100 * PeakTime / Time

	PerNodeMBs float64 // achieved per-node payload throughput, MB/s

	PacketsInjected int64
	WireBytes       int64
	PayloadBytes    int64 // total application payload delivered
	Events          int64 // logical simulator events processed (perf accounting)
	// QueuedEvents counts events pushed on and popped from the engine's
	// event queue. Every logical event is queued exactly once, so it equals
	// Events; the serving wire format and the benchmark read it by this name.
	QueuedEvents int64

	MeanLatencyUnits float64 // mean final-packet injection-to-delivery latency
	MaxLinkUtil      float64
	MeanLinkUtil     float64
	MeanCPUUtil      float64
	MaxCPUUtil       float64
	LastInjectUnits  int64 // time of the last injection; Time minus this is the drain tail

	// Fault-injection outcomes (zero without Options.Faults). DeadLinkTicks
	// sums link-downtime over the run (k links dead for d units contribute
	// k*d); Reroutes counts packets redirected the long way around a ring
	// after their minimal directions died. Both are identical at any shard
	// count.
	DeadLinkTicks int64
	Reroutes      int64

	// TPSLinearDim is the phase-1 dimension chosen by the Two Phase
	// Schedule (valid when Strategy == StratTPS).
	TPSLinearDim torus.Dim
	// CreditPackets counts flow-control credit packets sent (TPS with
	// TPSCreditWindow only).
	CreditPackets int64
	// MaxIntermediateBacklog is the largest forwarding backlog (packets
	// awaiting CPU re-injection) at any intermediate node.
	MaxIntermediateBacklog int
	// VMesh factorization used (valid when Strategy == StratVMesh).
	VMeshRows, VMeshCols int
	// PhaseTimes records per-phase completion for multi-phase strategies.
	PhaseTimes []int64

	// Observed is the observability summary for the run, present when
	// Options.Observer is an *observe.Collector (see alltoall.WithObserver).
	// Multi-phase strategies fold all phases into one summary.
	Observed *observe.Summary
}

// EventsPerPacket returns the queued-event volume per injected packet.
func (r Result) EventsPerPacket() float64 {
	if r.PacketsInjected == 0 {
		return 0
	}
	return float64(r.QueuedEvents) / float64(r.PacketsInjected)
}

func (o *Options) newResult(strat Strategy) Result {
	return Result{
		Strategy: strat,
		Shape:    o.Shape,
		MsgBytes: o.MsgBytes,
		PeakTime: o.Shape.PeakTime(o.MsgBytes),
	}
}

func (o *Options) finishResult(r *Result, t int64, st *network.Stats) {
	r.Time = t
	r.Seconds = o.Calib.Seconds(float64(t))
	if t > 0 {
		r.PercentPeak = r.PeakTime / float64(t) * 100
	}
	r.PerNodeMBs = model.PerNodeBandwidth(o.Calib, o.Shape, o.MsgBytes, float64(t))
	if st != nil {
		r.Events += st.Events()
		r.QueuedEvents = r.Events
		r.PacketsInjected += st.PacketsInjected
		r.WireBytes += st.WireBytesInjected
		r.PayloadBytes += st.FinalPayload
		r.MeanLatencyUnits = st.MeanLatency()
		r.LastInjectUnits = st.LastInject
		r.DeadLinkTicks += st.DeadLinkTicks
		r.Reroutes += st.Reroutes
		r.MaxLinkUtil = st.MaxLinkUtilization(t)
		r.MeanLinkUtil = st.MeanLinkUtilization(t, o.Shape.LinkCount())
		if t > 0 {
			var sum, max int64
			for _, c := range st.CPUBusy {
				sum += c
				if c > max {
					max = c
				}
			}
			r.MeanCPUUtil = float64(sum) / float64(t) / float64(len(st.CPUBusy))
			r.MaxCPUUtil = float64(max) / float64(t)
		}
	}
	if c, ok := o.Observer.(*observe.Collector); ok && c != nil {
		r.Observed = c.Summary()
	}
}

// RunContext executes one all-to-all under a context: cancellation aborts
// the simulation (the serial engine polls between events, the sharded
// engine at its window barriers) and the run fails with an error wrapping
// network.ErrCanceled.
func RunContext(ctx context.Context, strat Strategy, opts Options) (Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		opts.cancel = ctx.Done()
	}
	switch strat {
	case StratAR:
		return RunAR(opts)
	case StratDR:
		return RunDR(opts)
	case StratThrottle:
		return RunThrottled(opts)
	case StratMPI:
		return RunMPI(opts)
	case StratTPS:
		return RunTPS(opts)
	case StratVMesh:
		return RunVMesh(opts)
	case StratXYZ:
		return RunXYZ(opts)
	}
	return Result{}, fmt.Errorf("collective: unknown strategy %q", strat)
}

// Strategies lists all implemented strategies.
func Strategies() []Strategy {
	return []Strategy{StratAR, StratDR, StratThrottle, StratMPI, StratTPS, StratVMesh, StratXYZ}
}
