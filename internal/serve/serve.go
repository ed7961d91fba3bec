// Package serve is the concurrent simulation service behind cmd/aaserve: an
// HTTP/JSON front end that accepts canonical simulation jobs
// (collective.Request), runs them on a bounded scheduler with admission
// control and per-job deadlines, memoizes completed results in a cost-aware
// cache keyed by Request.Key(), and runs concurrent identical requests as
// one simulation.
//
// The correctness bar is byte identity: a served result is the same bytes as
// a direct collective.RunRequest of the same Request, at any concurrency,
// whether it came from a worker, the cache, or another request's run. That
// holds because (a) the engines are deterministic for a fixed Request, (b)
// Request.Key() is injective over every Result-determining field, and (c)
// the cache stores the encoded result JSON produced at run time, never a
// re-encoding.
//
// Endpoints (all JSON, schema_version 1):
//
//	POST /v1/jobs        run a job; ?async=1 returns 202 + id immediately
//	GET  /v1/jobs/{id}   poll an async job
//	GET  /v1/strategies  list strategy names
//	GET  /healthz        liveness
//	GET  /metrics        queue depth, in-flight, cache hit rate, jobs/s,
//	                     per-strategy latency histograms, link census totals
//
// Backpressure: when the queue is full, POST /v1/jobs answers 429 with a
// Retry-After estimate derived from observed job latency and queue depth.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"alltoall/internal/collective"
	"alltoall/internal/network"
	"alltoall/internal/torus"
)

// SchemaVersion stamps every response body; bump on breaking JSON changes.
const SchemaVersion = 1

// Config sizes the service. The zero value is usable: New fills defaults.
type Config struct {
	// Workers is how many simulations run at once (default 4). Each holds a
	// core the engine counts while the server runs, so with a worker for
	// every core (GOMAXPROCS) a job that leaves shards unset runs on one
	// engine; with fewer, from 128 nodes up it also takes the idle cores.
	Workers        int
	QueueDepth     int           // admission queue capacity (default 4*Workers)
	CacheEntries   int           // result cache capacity, 0 = default, <0 disables
	DefaultTimeout time.Duration // per-job deadline when the request has none (default 2m)
	MaxShards      int           // per-job ceiling on a forced shard count (default GOMAXPROCS)
	MaxNodes       int           // per-job torus size ceiling (default 65536)

	run runFunc // test hook; nil = collective.RunRequest
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.MaxShards <= 0 {
		c.MaxShards = runtime.GOMAXPROCS(0)
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 64 * 1024
	}
	if c.run == nil {
		c.run = defaultRun
	}
	return c
}

// Server is the simulation service. Create with New, mount Handler on an
// http.Server, and Close on shutdown (drains queued jobs).
type Server struct {
	cfg   Config
	cache *resultCache
	met   *metrics
	sched *scheduler

	nextID atomic.Int64

	mu    sync.Mutex
	jobs  map[string]*job // async registry
	order []string        // async ids oldest-first, for retainJobs eviction
}

// New builds a Server from cfg (zero value = defaults) and starts its
// worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: newResultCache(cfg.CacheEntries),
		met:   newMetrics(),
		jobs:  make(map[string]*job),
	}
	s.sched = newScheduler(cfg.Workers, cfg.QueueDepth, cfg.run, s.cache, s.met)
	return s
}

// Close stops admission and waits for queued and running jobs to finish.
func (s *Server) Close() { s.sched.close() }

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/strategies", s.handleStrategies)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// errorBody is every non-2xx response.
type errorBody struct {
	SchemaVersion int    `json:"schema_version"`
	Error         string `json:"error"`
	Code          string `json:"code"`
}

// mapError translates an engine or scheduler error into the documented HTTP
// status and machine-readable code. The mapping mirrors the root package's
// sentinel docs (alltoall.Err*).
func mapError(err error) (status int, code string) {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, "queue_full"
	case errors.Is(err, torus.ErrBadShape):
		return http.StatusBadRequest, "bad_shape"
	case errors.Is(err, network.ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout, "canceled"
	case errors.Is(err, network.ErrMaxTime):
		return http.StatusUnprocessableEntity, "max_time"
	case errors.Is(err, errShutdown):
		return http.StatusServiceUnavailable, "shutting_down"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// retryAfterSeconds estimates when a queue slot should free up: the queue
// backlog divided across the worker pool, at the observed mean job latency.
func (s *Server) retryAfterSeconds() int {
	per := s.met.avgJobSeconds()
	wait := per * float64(s.sched.depth()+1) / float64(s.cfg.Workers)
	secs := int(math.Ceil(wait))
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, code := mapError(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{SchemaVersion: SchemaVersion, Error: err.Error(), Code: code})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// submitBody is the POST /v1/jobs payload: the canonical Request wire form
// plus the timeout_ms sidecar (operational, so deliberately not part of the
// Request identity or Key).
type submitBody struct {
	collective.Request
	TimeoutMS int64
}

func decodeSubmit(r *http.Request) (submitBody, error) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, 1<<20)); err != nil {
		return submitBody{}, fmt.Errorf("read body: %w", err)
	}
	var b submitBody
	if err := json.Unmarshal(buf.Bytes(), &b.Request); err != nil {
		return submitBody{}, fmt.Errorf("decode request: %w", err)
	}
	var side struct {
		TimeoutMS int64 `json:"timeout_ms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &side); err != nil {
		return submitBody{}, fmt.Errorf("decode request: %w", err)
	}
	b.TimeoutMS = side.TimeoutMS
	return b, nil
}

// admissible applies the service's resource ceilings on top of
// Request.Validate.
func (s *Server) admissible(req collective.Request) error {
	if req.Shards > s.cfg.MaxShards {
		return fmt.Errorf("serve: shards %d exceeds limit %d (the server's cores unless -maxshards says otherwise; omit shards to let the engine decide)", req.Shards, s.cfg.MaxShards)
	}
	if p := req.Shape.P(); p > s.cfg.MaxNodes {
		return fmt.Errorf("serve: %d nodes exceeds limit %d", p, s.cfg.MaxNodes)
	}
	return nil
}

// newJob builds a job with its deadline context. base is the lifetime
// anchor: the HTTP request context for sync jobs (client gone = job
// canceled), context.Background for async jobs.
func (s *Server) newJob(base context.Context, req collective.Request, timeoutMS int64) *job {
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(base, timeout)
	return &job{
		id:     fmt.Sprintf("j-%06d", s.nextID.Add(1)),
		req:    req,
		key:    req.Key(),
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
	}
}

// jobEnvelope is the successful job response: the canonical request echoed
// back, its key, and the result bytes exactly as encoded at run time.
type jobEnvelope struct {
	SchemaVersion int                `json:"schema_version"`
	ID            string             `json:"id,omitempty"`
	Status        string             `json:"status"`
	Cache         string             `json:"cache,omitempty"` // "hit", "miss" or "shared"
	Key           string             `json:"key"`
	Request       collective.Request `json:"request"`
	Result        json.RawMessage    `json:"result,omitempty"`
	Error         string             `json:"error,omitempty"`
	Code          string             `json:"code,omitempty"`
}

func (s *Server) envelope(j *job, includeID bool) (jobEnvelope, int) {
	env := jobEnvelope{
		SchemaVersion: SchemaVersion,
		Status:        j.state(),
		Key:           j.key,
		Request:       j.req,
	}
	if includeID {
		env.ID = j.id
	}
	status := http.StatusOK
	switch env.Status {
	case "done":
		env.Result = json.RawMessage(j.body)
		env.Cache = j.cache
	case "failed":
		env.Error = j.err.Error()
		status, env.Code = mapError(j.err)
	}
	return env, status
}

// badRequest answers 400. Shape errors keep their sentinel code; every
// other decode or validation failure is still the client's fault, never a
// 500.
func badRequest(w http.ResponseWriter, err error) {
	code := "bad_request"
	if errors.Is(err, torus.ErrBadShape) {
		code = "bad_shape"
	}
	writeJSON(w, http.StatusBadRequest, errorBody{SchemaVersion: SchemaVersion, Error: err.Error(), Code: code})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := decodeSubmit(r)
	if err != nil {
		badRequest(w, err)
		return
	}
	req := body.Request
	if err := req.Validate(); err != nil {
		badRequest(w, err)
		return
	}
	if err := s.admissible(req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{SchemaVersion: SchemaVersion, Error: err.Error(), Code: "limits"})
		return
	}

	async := r.URL.Query().Get("async") == "1"
	base := r.Context()
	if async {
		base = context.Background()
	}
	j := s.newJob(base, req, body.TimeoutMS)
	if err := s.sched.submit(j); err != nil {
		j.cancel()
		s.writeError(w, err)
		return
	}

	if async {
		s.registerJob(j)
		writeJSON(w, http.StatusAccepted, jobEnvelope{
			SchemaVersion: SchemaVersion,
			ID:            j.id,
			Status:        j.state(),
			Key:           j.key,
			Request:       j.req,
		})
		return
	}

	<-j.done
	env, status := s.envelope(j, false)
	if env.Cache != "" {
		w.Header().Set("X-AA-Cache", env.Cache)
	}
	writeJSON(w, status, env)
}

// retainJobs is how many finished async jobs the registry keeps for polling.
const retainJobs = 256

// registerJob adds an async job to the polling registry, evicting the
// oldest finished jobs beyond retainJobs.
func (s *Server) registerJob(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if len(s.order) <= retainJobs {
		return
	}
	kept := s.order[:0]
	excess := len(s.order) - retainJobs
	for _, id := range s.order {
		if st := s.jobs[id].state(); excess > 0 && (st == "done" || st == "failed") {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{SchemaVersion: SchemaVersion, Error: "unknown job " + id, Code: "not_found"})
		return
	}
	env, status := s.envelope(j, true)
	if env.Cache != "" {
		w.Header().Set("X-AA-Cache", env.Cache)
	}
	writeJSON(w, status, env)
}

func (s *Server) handleStrategies(w http.ResponseWriter, r *http.Request) {
	names := make([]string, 0, 8)
	for _, st := range collective.Strategies() {
		names = append(names, string(st))
	}
	writeJSON(w, http.StatusOK, struct {
		SchemaVersion int      `json:"schema_version"`
		Strategies    []string `json:"strategies"`
	}{SchemaVersion, names})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	entries, evictions, refused := s.cache.counts()
	writeJSON(w, http.StatusOK, s.met.body(s.cfg.Workers, s.cfg.QueueDepth, s.sched.depth(), entries, evictions, refused))
}
