package alltoall

import (
	"context"

	"alltoall/internal/collective"
	"alltoall/internal/network"
	"alltoall/internal/observe"
)

// Option configures a RunContext call. Options are applied in argument
// order over a zero configuration, so a later option overrides an earlier
// one.
//
// Configuration precedence, documented here once and holding everywhere:
// an explicit Option wins over the corresponding Params struct field
// (WithCheck and WithFaults are folded in after WithParams), and any field
// left at its zero value takes the library default (DefaultParams,
// DefaultCalib, Burst 2, PaceFraction 0.95, and a MaxTime derived from the
// peak-time model). The one asymmetry: checking is enable-only - either
// WithCheck(true) or Params.Check turns the invariant checker on.
type Option func(*collective.Options)

// WithShape sets the torus/mesh partition (required).
func WithShape(s Shape) Option { return func(o *Options) { o.Shape = s } }

// WithMsgBytes sets the per-pair payload m in bytes (required, >= 1).
func WithMsgBytes(m int) Option { return func(o *Options) { o.MsgBytes = m } }

// WithSeed sets the randomization seed for destination orders.
func WithSeed(seed uint64) Option { return func(o *Options) { o.Seed = seed } }

// WithShards splits the run over n engines, one worker each (results are
// byte-identical at any count; 0 or 1 runs one engine on the caller).
func WithShards(n int) Option { return func(o *Options) { o.Shards = n } }

// WithCheck enables the runtime invariant checker (~1.4x simulation time).
func WithCheck(on bool) Option { return func(o *Options) { o.Check = on } }

// WithFaults installs a deterministic link-fault schedule: links go down,
// come back, die permanently, or degrade at scheduled times, and the routers
// steer packets around the damage via the adaptive dynamic VCs and the
// escape bubble channel. Results stay byte-identical at any shard count.
// Parse a schedule from the -faults spec grammar with ParseFaults, or build
// a FaultSchedule directly. nil (or an empty schedule) faults nothing and is
// byte-identical to an unfaulted run. The schedule is stored in its textual
// form (Request.Faults), the only form a run description carries.
func WithFaults(fs *FaultSchedule) Option { return func(o *Options) { o.Faults = fs.String() } }

// WithParams sets the simulated machine parameters (zero value: DefaultParams).
func WithParams(p Params) Option { return func(o *Options) { o.Par = p } }

// WithCalib sets the analytic-model calibration constants (zero value:
// DefaultCalib).
func WithCalib(c Calib) Option { return func(o *Options) { o.Calib = c } }

// WithMaxTime bounds the simulated time before the run aborts (0 derives a
// generous bound from the peak-time model).
func WithMaxTime(t int64) Option { return func(o *Options) { o.MaxTime = t } }

// WithObserver installs an observer on the run; pass a *Collector to get
// link/VC utilization, head-of-line-blocking attribution, FIFO watermarks,
// and a windowed trace. The run's Result.Observed then carries the
// collector's Summary. Observation never perturbs the simulation; a nil
// observer (the default) costs one predicted branch per event.
func WithObserver(obs Observer) Option { return func(o *Options) { o.Observer = obs } }

// WithDebugDump writes a network state dump to path if the run stalls
// against its MaxTime bound. Run machinery only: it never changes a Result,
// so it is excluded from Request identity (attach it as a RunRequest extra).
func WithDebugDump(path string) Option { return func(o *Options) { o.DebugDump = path } }

// RunContext executes one all-to-all with the given strategy under a
// context. Cancellation aborts the simulation promptly (the engines poll at
// window barriers and every few thousand events between) and surfaces an
// error wrapping ErrCanceled.
//
//	obs := alltoall.NewCollector(alltoall.ObserveConfig{})
//	res, err := alltoall.RunContext(ctx, alltoall.AR,
//		alltoall.WithShape(alltoall.NewTorus(16, 8, 8)),
//		alltoall.WithMsgBytes(1024),
//		alltoall.WithObserver(obs))
func RunContext(ctx context.Context, strat Strategy, opts ...Option) (Result, error) {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return collective.RunContext(ctx, strat, o)
}

// Observer taps the simulator's hot path for instrumentation; see
// WithObserver. Collector is the standard implementation.
type Observer = network.Observer

// Collector gathers per-link/per-VC traffic, head-of-line blocking, FIFO
// watermarks, and CPU occupancy for a run (or an accumulated sweep); see
// the observe package for details. Use NewCollector.
type Collector = observe.Collector

// ObserveConfig tunes a Collector (zero value: sensible defaults).
type ObserveConfig = observe.Config

// NewCollector returns a Collector with the given configuration (zero
// value for defaults). A collector may accumulate several runs on one
// shape; Reset clears it.
func NewCollector(cfg ObserveConfig) *Collector { return observe.New(cfg) }

// Summary is the stable run-level digest a Collector produces, returned on
// Result.Observed.
type Summary = observe.Summary

// FaultSchedule is a deterministic set of timed link faults; see WithFaults.
type FaultSchedule = network.FaultSchedule

// FaultEvent is one scheduled link transition of a FaultSchedule.
type FaultEvent = network.FaultEvent

// Fault actions for FaultEvent (down / up / kill / degrade).
const (
	FaultDown    = network.FaultDown
	FaultUp      = network.FaultUp
	FaultKill    = network.FaultKill
	FaultDegrade = network.FaultDegrade
)

// ParseFaults parses the textual fault-schedule grammar shared with the
// aasim/aabench -faults flag: semicolon-separated "t:node:dir:action" events
// where dir is one of +x -x +y -y +z -z and action is down, up, kill, or xN
// (degrade: wire occupancy multiplied by N).
func ParseFaults(spec string) (*FaultSchedule, error) { return network.ParseFaults(spec) }
