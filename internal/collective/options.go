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

// Options is what a strategy runner consumes: the Request that describes the
// run, plus the remainder a Request cannot say - machine and model overrides
// that have no value identity, and run machinery that never changes a Result.
// Run and RunPattern validate the Request and fill every default, once per run.
type Options struct {
	Request

	Par   network.Params // zero value: network.DefaultParams()
	Calib model.Calib    // zero value: model.DefaultCalib()

	// Cache, when non-nil, lets a run recycle the simulation network across
	// runs that share a shape and machine parameters (message-size sweeps):
	// the network is Reset instead of rebuilt, reusing its router, queue,
	// packet-pool, and event-queue allocations. A cache must not be shared
	// between concurrent runs; give each worker goroutine its own.
	Cache *NetCache

	// Observer, when non-nil, taps the simulation for instrumentation
	// (typically an *observe.Collector). Multi-phase strategies report each
	// phase as one observed run to the same observer. When the observer is
	// an observe.Collector, Result.Observed carries its summary. Left nil
	// with Request.Observe set, the run attaches a fresh collector.
	Observer network.Observer

	// SyncStats, when non-nil, receives the engine's synchronization counters
	// for the run (the shard count that actually ran, windows, barrier
	// crossings, cross-shard traffic; multi-phase strategies accumulate
	// across phases). The counters depend
	// on the shard count, which is why they are an out-parameter rather than
	// Result fields - Result stays a pure function of the request.
	SyncStats *network.SyncStats

	// DebugDump, when non-empty, names a file to which the full network
	// state is written if a run stalls or exceeds MaxTime (diagnostics).
	DebugDump string

	// ctx is the run's context, set by prepare and handed to the engines
	// (network.RunSpec.Ctx): cancellation and a pool worker's core.
	ctx context.Context
	// faults is Request.Faults parsed and validated by prepare (nil when it
	// is empty).
	faults *network.FaultSchedule
}

// prepare binds the run to ctx (cancellation aborts the simulation with an
// error wrapping network.ErrCanceled), validates the Request and resolves
// every default: Burst 2, PaceBurst 2, PaceFraction 0.95, Par defaulted to
// network.DefaultParams, Calib, a MaxTime derived from the peak-time model,
// the parsed fault schedule, and the collector Request.Observe asks for. It
// is the one place a run description becomes runnable; Run and RunPattern
// call it once, before the first phase runs.
func (o *Options) prepare(ctx context.Context) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		o.ctx = ctx
	}
	var err error
	if o.faults, err = o.Request.check(); err != nil {
		return err
	}
	if o.Burst == 0 {
		o.Burst = 2
	}
	if o.PaceBurst == 0 {
		o.PaceBurst = 2
	}
	if o.PaceFraction == 0 {
		o.PaceFraction = 0.95
	}
	if o.Par == (network.Params{}) {
		o.Par = network.DefaultParams()
	}
	if o.Calib == (model.Calib{}) {
		o.Calib = model.DefaultCalib()
	}
	if o.MaxTime == 0 {
		peak := o.Shape.PeakTime(o.MsgBytes)
		o.MaxTime = int64(peak*100) + int64(o.Shape.P())*(o.Calib.AlphaMsg+o.Calib.AlphaMPI)*64 + 1<<24
	}
	if o.Observe && o.Observer == nil {
		o.Observer = observe.New(observe.Config{Window: o.ObserveWindow})
	}
	return nil
}

// NetCache is a one-slot cache of a simulation network. Sweeps that revisit
// one (shape, params) configuration at many message sizes pass the same
// cache through Options so each point reuses the previous network's
// allocations via Network.Reset. The zero value is ready to use.
type NetCache struct {
	nw *network.Network
}

// network returns a simulator for this run: the cached instance, Reset, when
// its shape and machine parameters match, else a fresh one (which the cache
// keeps).
func (o *Options) network(sources []network.Source, h network.Handler) (*network.Network, error) {
	c := o.Cache
	if c != nil && c.nw != nil && c.nw.Shape == o.Shape && c.nw.Par == o.Par {
		return c.nw, c.nw.Reset(sources, h)
	}
	nw, err := network.New(o.Shape, o.Par, sources, h)
	if err == nil && c != nil {
		c.nw = nw
	}
	return nw, err
}

// runPhase runs one simulated phase of a prepared run, the skeleton every
// strategy and pattern shares: build or recycle the network for sources and
// h, drive it with the run's settings (network.RunSpec), dump its state to
// DebugDump on failure, fold the sync counters into SyncStats, and check the
// payload h counted per node into recv against want. Errors are
// labeled "<label> on <shape>". Multi-phase strategies call it once per
// phase; the returned network's Stats are valid until the next call, which
// may recycle it.
func (o *Options) runPhase(label string, sources []network.Source, h network.Handler,
	recv []int64, want func(node int) int64) (*network.Network, int64, error) {
	nw, err := o.network(sources, h)
	if err != nil {
		return nil, 0, err
	}
	t, ss, err := nw.RunSharded(network.RunSpec{MaxTime: o.MaxTime, Shards: o.Shards,
		Ctx: o.ctx, Observer: o.Observer, Check: o.Check, Faults: o.faults})
	if err != nil {
		if o.DebugDump != "" {
			if f, ferr := os.Create(o.DebugDump); ferr == nil {
				nw.DumpState(f)
				f.Close()
			}
		}
		return nil, 0, fmt.Errorf("%s on %v: %w", label, o.Shape, err)
	}
	if o.SyncStats != nil {
		o.SyncStats.Add(&ss)
	}
	for n, got := range recv {
		if got != want(n) {
			return nil, 0, fmt.Errorf("%s on %v: node %d received %d payload bytes, want %d",
				label, o.Shape, n, got, want(n))
		}
	}
	return nw, t, nil
}

// allToAllPayload is runPhase's want for the single-phase strategies: every
// node receives MsgBytes from each of the other P-1.
func (o *Options) allToAllPayload(int) int64 {
	return int64(o.Shape.P()-1) * int64(o.MsgBytes)
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

// Result reports one run. The struct tags are the aaserve wire form of a
// result (snake_case, strategy-specific fields omitted when zero, covered by
// the serve schema version); served bytes are compared with direct runs, so
// the field order is part of the format.
type Result struct {
	Strategy Strategy    `json:"strategy"`
	Shape    torus.Shape `json:"shape"`
	MsgBytes int         `json:"msg_bytes"`

	Time        int64   `json:"time"`         // completion time, units
	Seconds     float64 `json:"seconds"`      // completion time, seconds (calibrated)
	PeakTime    float64 `json:"peak_time"`    // Equation 2 peak time, units
	PercentPeak float64 `json:"percent_peak"` // 100 * PeakTime / Time

	PerNodeMBs float64 `json:"per_node_mbs"` // achieved per-node payload throughput, MB/s

	PacketsInjected int64 `json:"packets_injected"`
	WireBytes       int64 `json:"wire_bytes"`
	PayloadBytes    int64 `json:"payload_bytes"` // total application payload delivered
	Events          int64 `json:"events"`        // logical simulator events processed (perf accounting)
	// QueuedEvents counts events pushed on and popped from the engine's
	// event queue. Every logical event is queued exactly once, so it equals
	// Events; the serving wire format and the benchmark read it by this name.
	QueuedEvents int64 `json:"queued_events"`

	MeanLatencyUnits float64 `json:"mean_latency_units"` // mean final-packet injection-to-delivery latency
	MaxLinkUtil      float64 `json:"max_link_util"`
	MeanLinkUtil     float64 `json:"mean_link_util"`
	MeanCPUUtil      float64 `json:"mean_cpu_util"`
	MaxCPUUtil       float64 `json:"max_cpu_util"`
	LastInjectUnits  int64   `json:"last_inject_units"` // time of the last injection; Time minus this is the drain tail

	// Fault-injection outcomes (zero without Request.Faults). DeadLinkTicks
	// sums link-downtime over the run (k links dead for d units contribute
	// k*d); Reroutes counts packets redirected the long way around a ring
	// after their minimal directions died. Both are identical at any shard
	// count.
	DeadLinkTicks int64 `json:"dead_link_ticks,omitempty"`
	Reroutes      int64 `json:"reroutes,omitempty"`

	// TPSLinearDim is the phase-1 dimension the Two Phase Schedule ran on,
	// in Request.TPSLinear's encoding (1/2/3 = X/Y/Z, see LinearDim.Dim); 0
	// when Strategy is not StratTPS, which is what keeps it off the wire.
	TPSLinearDim LinearDim `json:"tps_linear_dim,omitempty"`
	// CreditPackets counts flow-control credit packets sent (TPS with
	// TPSCreditWindow only).
	CreditPackets int64 `json:"credit_packets,omitempty"`
	// MaxIntermediateBacklog is the largest forwarding backlog (packets
	// awaiting CPU re-injection) at any intermediate node.
	MaxIntermediateBacklog int `json:"max_intermediate_backlog,omitempty"`
	// VMesh factorization used (valid when Strategy == StratVMesh).
	VMeshRows int `json:"vmesh_rows,omitempty"`
	VMeshCols int `json:"vmesh_cols,omitempty"`
	// PhaseTimes records per-phase completion for multi-phase strategies.
	PhaseTimes []int64 `json:"phase_times,omitempty"`

	// Observed is the observability summary for the run, present when
	// Options.Observer is an *observe.Collector (see alltoall.WithObserver).
	// Multi-phase strategies fold all phases into one summary.
	Observed *observe.Summary `json:"observed,omitempty"`
}

// EventsPerPacket returns the queued-event volume per injected packet.
func (r Result) EventsPerPacket() float64 {
	if r.PacketsInjected == 0 {
		return 0
	}
	return float64(r.QueuedEvents) / float64(r.PacketsInjected)
}

// result builds the run's Result from its completion time and, for the
// single-network strategies, the network's statistics (VMesh passes nil and
// folds its two phases itself).
func (o *Options) result(t int64, st *network.Stats) Result {
	r := Result{
		Strategy: o.Strategy,
		Shape:    o.Shape,
		MsgBytes: o.MsgBytes,
		PeakTime: o.Shape.PeakTime(o.MsgBytes),
		Time:     t,
		Seconds:  o.Calib.Seconds(float64(t)),
	}
	if t > 0 {
		r.PercentPeak = r.PeakTime / float64(t) * 100
	}
	r.PerNodeMBs = model.PerNodeBandwidth(o.Calib, o.Shape, o.MsgBytes, float64(t))
	if st != nil {
		r.Events = st.Events()
		r.QueuedEvents = r.Events
		r.PacketsInjected = st.PacketsInjected
		r.WireBytes = st.WireBytesInjected
		r.PayloadBytes = st.FinalPayload
		r.MeanLatencyUnits = st.MeanLatency()
		r.LastInjectUnits = st.LastInject
		r.DeadLinkTicks = st.DeadLinkTicks
		r.Reroutes = st.Reroutes
		r.MaxIntermediateBacklog = st.MaxPendingFw
		r.utilization(st, o.Shape.LinkCount())
	}
	if c, ok := o.Observer.(*observe.Collector); ok && c != nil {
		r.Observed = c.Summary()
	}
	return r
}

// utilization derives the link and CPU occupancy figures over r.Time from
// the per-link and per-node busy time in st.
func (r *Result) utilization(st *network.Stats, links int) {
	t := r.Time
	r.MaxLinkUtil = st.MaxLinkUtilization(t)
	r.MeanLinkUtil = st.MeanLinkUtilization(t, links)
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

// Run executes the all-to-all opts.Request describes under a context:
// cancellation aborts the simulation (the engines poll at window barriers
// and every few thousand events between) and the run fails with an error
// wrapping network.ErrCanceled.
func Run(ctx context.Context, opts Options) (Result, error) {
	if err := opts.prepare(ctx); err != nil {
		return Result{}, err
	}
	switch opts.Strategy {
	case StratAR, StratDR, StratThrottle, StratMPI:
		return runBurst(&opts, directRoute(opts.Shape, opts.Strategy == StratDR))
	case StratTPS:
		return runTPS(&opts)
	case StratVMesh:
		return runVMesh(&opts)
	case StratXYZ:
		return runBurst(&opts, xyzRoute(opts.Shape))
	}
	return Result{}, fmt.Errorf("collective: unknown strategy %q", opts.Strategy)
}

// Strategies lists all implemented strategies.
func Strategies() []Strategy {
	return []Strategy{StratAR, StratDR, StratThrottle, StratMPI, StratTPS, StratVMesh, StratXYZ}
}
