package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"alltoall/internal/collective"
	"alltoall/internal/network"
	"alltoall/internal/parallel"
)

// ErrQueueFull is returned by admission control when a job cannot be
// enqueued because the scheduler queue is at capacity. The HTTP layer maps
// it to 429 Too Many Requests with a Retry-After estimate; test with
// errors.Is (re-exported as alltoall.ErrQueueFull).
var ErrQueueFull = errors.New("serve: job queue full")

// errShutdown rejects submissions after Close.
var errShutdown = errors.New("serve: server shutting down")

// errPanic marks a simulation that panicked on its worker; mapError files it
// under 500 internal like any other unexpected failure.
var errPanic = errors.New("serve: simulation panicked")

// jobStatus is the lifecycle of a job in the scheduler.
type jobStatus int32

const (
	statusQueued jobStatus = iota
	statusRunning
	statusDone
	statusFailed
)

func (s jobStatus) String() string {
	switch s {
	case statusQueued:
		return "queued"
	case statusRunning:
		return "running"
	case statusDone:
		return "done"
	case statusFailed:
		return "failed"
	}
	return fmt.Sprintf("jobStatus(%d)", int32(s))
}

// job is one request waiting for a result. Fields before done are set at
// submit time; result fields are written by exactly one goroutine (whoever
// holds the scheduler lock when the outcome is known) before done is closed,
// and read only after <-done, so no further synchronization is needed on
// them. status is guarded by its own lock for rendering.
type job struct {
	id  string
	req collective.Request
	key string

	ctx    context.Context
	cancel context.CancelFunc
	stop   func() bool // unregisters the ctx watcher of an attached job

	done  chan struct{}
	body  []byte // canonical result JSON, nil on failure
	err   error
	cache string // how the result was obtained: "hit", "miss" or "shared"

	mu       sync.Mutex // guards status
	status   jobStatus
	created  time.Time
	finished time.Time
}

func (j *job) setStatus(s jobStatus) {
	j.mu.Lock()
	j.status = s
	j.mu.Unlock()
}

func (j *job) getStatus() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// finish publishes a job outcome exactly once.
func (j *job) finish(body []byte, err error) {
	j.body = body
	j.err = err
	j.finished = time.Now()
	if err != nil {
		j.setStatus(statusFailed)
	} else {
		j.setStatus(statusDone)
	}
	if j.stop != nil {
		j.stop()
	}
	j.cancel()
	close(j.done)
}

// flight is one simulation, queued or running, and the jobs waiting for its
// outcome: the leader that caused it and every later request for the same
// key. It runs under its own context, canceled only once every attached job
// has gone, so no single client's disconnect or deadline fails the others.
type flight struct {
	key    string
	req    collective.Request
	ctx    context.Context
	cancel context.CancelFunc

	// Guarded by scheduler.mu.
	jobs    []*job
	running bool
}

// runFunc executes one canonical request; the default is
// collective.RunRequest with the worker's network cache attached and the
// sharded engine's synchronization counters collected into ss (which may be
// nil). Tests substitute blocking or failing runners to exercise scheduling
// edges.
type runFunc func(ctx context.Context, req collective.Request, cache *collective.NetCache, ss *network.SyncStats) (collective.Result, error)

func defaultRun(ctx context.Context, req collective.Request, cache *collective.NetCache, ss *network.SyncStats) (collective.Result, error) {
	return collective.RunRequest(ctx, req, func(o *collective.Options) {
		o.Cache = cache
		o.SyncStats = ss
	})
}

// scheduler runs simulations on a bounded worker pool behind a bounded FIFO
// queue, at most one per canonical key at a time (single-flight). Admission
// is non-blocking: a full queue refuses the job with ErrQueueFull and the
// HTTP layer translates that into backpressure. Each worker owns a private
// collective.NetCache, so consecutive runs that share a shape and machine
// parameters recycle the simulation network's allocations - the cheap,
// always-correct reuse - while byte-level result reuse is the result
// cache's job (cache.go). Each worker holds a core its runs count as their
// first engine (parallel.WithCore). Determinism note: a worker cache never
// changes a Result (Network.Reset reuse is regression-tested byte-identical),
// so scheduling order, worker count and who led a flight are invisible in
// served output.
type scheduler struct {
	queue   chan *flight
	run     runFunc
	cache   *resultCache
	metrics *metrics

	// mu makes admission atomic with completion: a key is in the cache, or
	// in flights, or neither, never observed between the two.
	mu      sync.Mutex
	flights map[string]*flight
	closed  bool
	wg      sync.WaitGroup
}

func newScheduler(workers, depth int, run runFunc, cache *resultCache, m *metrics) *scheduler {
	s := &scheduler{
		queue:   make(chan *flight, depth),
		run:     run,
		cache:   cache,
		metrics: m,
		flights: make(map[string]*flight),
	}
	s.wg.Add(workers)
	parallel.UseCores(workers) // before any worker starts, so the first jobs see the whole pool
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// submit admits a job. A cache hit completes it immediately; a key already
// in flight is joined (neither takes a queue slot or a worker); otherwise
// the job leads a new flight into the FIFO unless the queue is full.
func (s *scheduler) submit(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if body, events, ok := s.cache.get(j.key); ok {
		s.metrics.noteCacheHit(events)
		j.cache = "hit"
		j.finish(body, nil)
		return nil
	}
	if s.closed {
		return errShutdown
	}
	f := s.flights[j.key]
	if f != nil {
		j.cache = "shared"
		if f.running {
			j.setStatus(statusRunning)
		}
	} else {
		ctx, cancel := context.WithCancel(context.Background())
		f = &flight{key: j.key, req: j.req, ctx: ctx, cancel: cancel}
		select {
		case s.queue <- f:
		default:
			cancel()
			s.metrics.noteRejected()
			return fmt.Errorf("%w (depth %d)", ErrQueueFull, cap(s.queue))
		}
		s.flights[j.key] = f
		j.cache = "miss"
	}
	s.metrics.noteCacheMiss()
	f.jobs = append(f.jobs, j)
	j.stop = context.AfterFunc(j.ctx, func() { s.detach(f, j) })
	return nil
}

// detach fails a job whose own context ended (client gone, deadline past)
// before its flight did. The flight carries on for the jobs still attached;
// the last one to leave cancels it.
func (s *scheduler) detach(f *flight, j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := slices.Index(f.jobs, j)
	if i < 0 {
		return // the flight finished first
	}
	f.jobs = slices.Delete(f.jobs, i, i+1)
	j.finish(nil, fmt.Errorf("serve: job canceled: %w", j.ctx.Err()))
	if len(f.jobs) == 0 {
		f.cancel()
		delete(s.flights, f.key) // a new request must not join a canceled flight
	}
}

// depth reports the number of queued (not yet running) flights.
func (s *scheduler) depth() int { return len(s.queue) }

// begin marks a dequeued flight running, unless every job left it while it
// waited in the queue - then there is nobody to burn a worker for.
func (s *scheduler) begin(f *flight) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(f.jobs) == 0 {
		return false
	}
	f.running = true
	for _, j := range f.jobs {
		j.setStatus(statusRunning)
	}
	return true
}

// complete caches a successful flight's bytes and the events its run cost,
// and hands its outcome, result or failure, to every job still attached.
// Failures are never cached.
func (s *scheduler) complete(f *flight, events int64, body []byte, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.flights[f.key] == f {
		delete(s.flights, f.key)
	}
	if err == nil {
		s.cache.add(f.key, body, events)
	}
	for _, j := range f.jobs {
		if err == nil && j.cache == "shared" {
			s.metrics.noteShared(events)
		}
		j.finish(body, err)
	}
	f.jobs = nil
	f.cancel()
}

// contain runs one flight, turning a panic in the simulator into an errPanic
// so that it fails this flight's jobs instead of the whole service.
func (s *scheduler) contain(f *flight, cache *collective.NetCache, ss *network.SyncStats) (res collective.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = collective.Result{}, fmt.Errorf("%w on %s: %v", errPanic, f.key, p)
		}
	}()
	return s.run(parallel.WithCore(f.ctx), f.req, cache, ss)
}

func (s *scheduler) worker() {
	defer s.wg.Done()
	defer parallel.ReleaseCores(1)
	cache := &collective.NetCache{}
	for f := range s.queue {
		if !s.begin(f) {
			s.metrics.noteJob(f.req.Strategy, 0, false, nil)
			continue
		}
		s.metrics.noteStart()
		start := time.Now()
		var ss network.SyncStats
		res, err := s.contain(f, cache, &ss)
		elapsed := time.Since(start)
		if errors.Is(err, errPanic) {
			cache = &collective.NetCache{} // its network may be mid-mutation
		}
		var body []byte
		if err == nil {
			body, err = json.Marshal(res)
		}
		s.metrics.noteDone()
		if err != nil {
			s.metrics.noteJob(f.req.Strategy, elapsed, false, nil)
			s.complete(f, 0, nil, err)
			continue
		}
		s.metrics.noteSync(&ss)
		s.metrics.noteJob(f.req.Strategy, elapsed, true, &res)
		s.complete(f, res.Events, body, nil)
	}
}

// close drains the pool: no new submissions, queued flights still run.
func (s *scheduler) close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
}
