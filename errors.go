package alltoall

import (
	"alltoall/internal/network"
	"alltoall/internal/serve"
	"alltoall/internal/torus"
)

// Unified error reporting: every failure mode a caller is expected to
// branch on is an exported sentinel, threaded with %w through the event
// engine at any shard count, Run, RunPattern, and the aaserve HTTP service,
// which maps each to a fixed status code. Classify with errors.Is; the
// message text around a sentinel is diagnostic detail, not API.
var (
	// ErrCanceled is wrapped by the error a canceled run returns: the
	// engines poll the context at window barriers and every few thousand
	// events between. HTTP: 408 Request Timeout.
	ErrCanceled = network.ErrCanceled

	// ErrMaxTime is wrapped when simulated time exceeds the MaxTime bound
	// before the workload completes (a stall or a collapsed
	// configuration). HTTP: 422 Unprocessable Entity.
	ErrMaxTime = network.ErrMaxTime

	// ErrBadShape is wrapped by every shape-validation and shape-parsing
	// error. HTTP: 400 Bad Request.
	ErrBadShape = torus.ErrBadShape

	// ErrQueueFull is returned by the serving layer when a job is refused
	// by admission control because the scheduler queue is at capacity.
	// HTTP: 429 Too Many Requests with a Retry-After estimate.
	ErrQueueFull = serve.ErrQueueFull
)
