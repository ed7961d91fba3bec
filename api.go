package alltoall

import (
	"context"

	"alltoall/internal/collective"
	"alltoall/internal/network"
	"alltoall/internal/observe"
	"alltoall/internal/torus"
)

// Request is the one description of a simulation run - value-comparable,
// and the front door of this API: the same Request type is submitted
// programmatically (Run), from the aasim CLI, by the experiments engine, and
// over HTTP to the aaserve service - and a given Request produces a
// byte-identical Result wherever and however often it runs, which is what
// makes Key() a sound cache identity.
//
// The zero value plus Strategy, Shape and MsgBytes is a complete job; every
// other field's zero value means "library default" (Burst 2, PaceFraction
// 0.95, a MaxTime derived from the peak-time model, ...). The struct's field
// tags are the stable snake_case JSON wire form used by aaserve (shapes in
// the ParseShape grammar). See collective.Request for field documentation.
type Request = collective.Request

// Option attaches to one Run or RunPattern call what a Request cannot say:
// machine and model overrides, which have no value identity (WithParams,
// WithCalib), and run machinery, which never changes a Result (WithCache,
// WithObserver, WithDebugDump). Everything else about a run is a Request
// field, Observe included: it alone decides whether Result.Observed is set.
type Option func(*Options)

// WithParams sets the simulated machine parameters (zero value: DefaultParams).
func WithParams(p Params) Option { return func(o *Options) { o.Par = p } }

// WithCalib sets the analytic-model calibration constants (zero value:
// DefaultCalib).
func WithCalib(c Calib) Option { return func(o *Options) { o.Calib = c } }

// WithCache lets the run recycle the cached network's router, queue,
// packet-pool and event-queue allocations via Network.Reset when the shape
// and parameters match (message-size sweeps, repeated served jobs). Purely
// run machinery: results are byte-identical with or without a cache.
func WithCache(c *NetCache) Option { return func(o *Options) { o.Cache = c } }

// WithObserver installs an observer on the run; pass a *Collector to get
// link/VC utilization, head-of-line-blocking attribution, FIFO watermarks,
// and a windowed trace. It never changes the Result: Result.Observed is set
// exactly when Request.Observe is. Observe alone attaches a fresh collector
// and returns only its Summary; with Observe set, pass your own *Collector,
// of any window, to keep the collector as well (the trace, the attribution
// report) - any other observer fails the run before it starts. Observation
// never perturbs the simulation; a nil observer (the default) costs one
// predicted branch per event.
func WithObserver(obs Observer) Option { return func(o *Options) { o.Observer = obs } }

// WithDebugDump writes a network state dump to path if the run stalls
// against its MaxTime bound.
func WithDebugDump(path string) Option { return func(o *Options) { o.DebugDump = path } }

// options is the run a call describes: the Request, then each Option.
func options(req Request, opts []Option) Options {
	o := Options{Request: req}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Run executes the all-to-all req describes under a context. Cancellation
// and deadlines abort the simulation promptly (the engines poll at window
// barriers and every few thousand events between) with an error wrapping
// ErrCanceled; an exceeded MaxTime wraps ErrMaxTime. Results are
// byte-identical for equal Requests at any concurrency and any shard count.
//
//	res, err := alltoall.Run(ctx, alltoall.Request{
//		Strategy: alltoall.TPS, Shape: alltoall.NewTorus(8, 32, 16), MsgBytes: 1024})
func Run(ctx context.Context, req Request, opts ...Option) (Result, error) {
	return collective.Run(ctx, options(req, opts))
}

// Beyond all-to-all: many-to-many traffic patterns on the same simulated
// torus (the paper's introduction motivates applying its analysis to such
// patterns). ExampleRunPattern runs the catalogue.

// Pattern generates per-source destination lists for a many-to-many run.
type Pattern = collective.Pattern

// The built-in patterns.
type (
	// Shift sends each rank one message Offset ranks ahead (wrapping).
	Shift = collective.Shift
	// DimShift shifts along one torus dimension by a fixed hop count.
	DimShift = collective.DimShift
	// Transpose exchanges X and Y coordinates (square XY planes only).
	Transpose = collective.Transpose
	// RandomPermutation pairs every rank with a distinct random partner.
	RandomPermutation = collective.RandomPermutation
	// HotSpot sends every rank's message to one root (incast).
	HotSpot = collective.HotSpot
	// RandomSubset sends each rank one message to K distinct random peers.
	RandomSubset = collective.RandomSubset
)

// RunPattern executes a many-to-many pattern on the run req describes: shape,
// message size, shards, checking, faults and observation mean what they mean
// to Run, and req.Strategy is the routing - DR deterministic dimension order,
// AR or "" adaptive; any other strategy is an error, as is a pattern whose
// parameters the shape cannot honour. The Result's PeakTime and PercentPeak
// stay zero (Equation 2 bounds an all-to-all, not a pattern) and
// PayloadBytes/MsgBytes is the number of messages sent.
//
//	res, err := alltoall.RunPattern(ctx, alltoall.Transpose{},
//		alltoall.Request{Shape: alltoall.NewTorus(8, 8, 1), MsgBytes: 4096})
func RunPattern(ctx context.Context, p Pattern, req Request, opts ...Option) (Result, error) {
	return collective.RunPattern(ctx, p, options(req, opts))
}

// ParseStrategy resolves a strategy name case-insensitively ("tps" = TPS)
// to its canonical spelling, as the CLIs and the aaserve wire format do.
func ParseStrategy(name string) (Strategy, error) { return collective.ParseStrategy(name) }

// ParseShape reads the textual shape grammar shared by the CLIs and the
// aaserve wire format: "8", "8x8", "8x32x16", with an optional M (or m)
// suffix per dimension marking it as a mesh. Errors wrap ErrBadShape.
// Shape.Canon renders the inverse, injective form.
func ParseShape(s string) (Shape, error) { return torus.Parse(s) }

// NetCache recycles simulation-network allocations across runs that share a
// shape and machine parameters (see WithCache). A cache must not be shared
// between concurrent runs; give each worker its own.
type NetCache = collective.NetCache

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

// FaultSchedule is a deterministic set of timed link faults: links go down,
// come back, die permanently, or degrade at scheduled times, and the routers
// steer packets around the damage via the adaptive dynamic VCs and the
// escape bubble channel. A run takes the schedule in its textual form, the
// only form a run description carries: req.Faults = fs.String(). Parse one
// with ParseFaults or build it directly; "" (or an empty schedule) faults
// nothing and is byte-identical to an unfaulted run.
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

// ParseFaults parses the textual fault-schedule grammar of Request.Faults
// and the aasim -faults flag: semicolon-separated "t:node:dir:action"
// events where dir is one of +x -x +y -y +z -z and action is down, up, kill,
// or xN (degrade: wire occupancy multiplied by N).
func ParseFaults(spec string) (*FaultSchedule, error) { return network.ParseFaults(spec) }
