package alltoall

import (
	"context"

	"alltoall/internal/collective"
	"alltoall/internal/torus"
)

// Request is the one description of a simulation run - value-comparable,
// and the front door of this API: the same Request type is submitted
// programmatically (RunRequest), from the aasim CLI, by the experiments
// engine, and over HTTP to the aaserve service - and a given Request produces
// a byte-identical Result wherever and however often it runs, which is what
// makes Key() a sound cache identity. Options embeds it, so every Option
// that describes the run (WithShape, WithMsgBytes, WithFaults, ...) writes a
// Request field.
//
// The zero value plus Strategy, Shape and MsgBytes is a complete job; every
// other field's zero value means "library default". The struct's field tags
// are the stable snake_case JSON wire form used by aaserve (shapes in the
// ParseShape grammar). See collective.Request for field documentation.
type Request = collective.Request

// NewRequest returns the Request that functional options describe for a
// strategy. Options that set anything a Request cannot say (explicit
// Params/Calib overrides, an Observer, a Cache, a debug dump path) return an
// error wrapping collective.ErrNotCanonical: machine overrides have no value
// identity, and run machinery never changes a run's Result, so both are
// excluded from request identity; attach machinery per call as RunRequest
// extras instead.
//
//	req, err := alltoall.NewRequest(alltoall.TPS,
//		alltoall.WithShape(alltoall.NewTorus(8, 32, 16)),
//		alltoall.WithMsgBytes(1024))
//	key := req.Key() // stable cache/bench identity
func NewRequest(strat Strategy, opts ...Option) (Request, error) {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return collective.NewRequest(strat, o)
}

// RunRequest executes a canonical Request under a context; it is RunContext
// with a value identity. Cancellation and deadlines abort the simulation
// promptly with an error wrapping ErrCanceled. The extra options, by
// contract, attach run machinery only - WithCache, WithObserver, a debug
// dump - never anything that changes the simulated outcome; Results are
// byte-identical for equal Requests at any concurrency, on every entry
// point.
//
//	res, err := alltoall.RunRequest(ctx, req)
func RunRequest(ctx context.Context, req Request, extra ...Option) (Result, error) {
	xs := make([]func(*collective.Options), len(extra))
	for i, e := range extra {
		xs[i] = e
	}
	return collective.RunRequest(ctx, req, xs...)
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

// WithCache lets the run recycle the cached network's router, queue,
// packet-pool and event-queue allocations via Network.Reset when the shape
// and parameters match (message-size sweeps, repeated served jobs). Purely
// run machinery: results are byte-identical with or without a cache.
func WithCache(c *NetCache) Option { return func(o *Options) { o.Cache = c } }

// WithDetRouting forces deterministic dimension-ordered routing for runs
// whose workload does not already fix the routing mode. Only pattern runs
// (RunPatternContext) consult it; the collective strategies choose routing
// per strategy.
func WithDetRouting(on bool) Option { return func(o *Options) { o.DetRouting = on } }
