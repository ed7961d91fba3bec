package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alltoall/internal/collective"
	"alltoall/internal/network"
)

// stubEvents is the cost every countedRun result reports.
const stubEvents = 1000

// countedRun is a blocking runFunc that counts its calls and lets the nth
// call (from 1) fail or panic instead of waiting for release.
type countedRun struct {
	release chan struct{}
	calls   atomic.Int64
	failOn  int64
	panicOn int64
	caches  sync.Map // call number -> the worker's *collective.NetCache
}

func (c *countedRun) run(ctx context.Context, req collective.Request, cache *collective.NetCache, ss *network.SyncStats) (collective.Result, error) {
	n := c.calls.Add(1)
	c.caches.Store(n, cache)
	select {
	case <-c.release:
	case <-ctx.Done():
		return collective.Result{}, network.ErrCanceled
	}
	switch n {
	case c.failOn:
		return collective.Result{}, errors.New("stub: simulation failed")
	case c.panicOn:
		panic("stub: router state corrupt")
	}
	return collective.Result{Strategy: req.Strategy, Shape: req.Shape, MsgBytes: req.MsgBytes, Events: stubEvents}, nil
}

// waitFor polls for a scheduler state that no channel announces (a follower
// attaching to a flight is silent by design).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// postAll sends n identical posts concurrently and returns once all have been
// admitted (hit, attached or refused); wait collects the responses.
func postAll(t *testing.T, s *Server, n int, body string) (wait func() []*httptest.ResponseRecorder) {
	t.Helper()
	before := s.met.hits.Load() + s.met.misses.Load() + s.met.rejected.Load()
	out := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body)))
			out[i] = w
		}()
	}
	waitFor(t, "posts to be admitted", func() bool {
		return s.met.hits.Load()+s.met.misses.Load()+s.met.rejected.Load() == before+int64(n)
	})
	return func() []*httptest.ResponseRecorder { wg.Wait(); return out }
}

func metricsOf(t *testing.T, s *Server) metricsBody {
	t.Helper()
	var mb metricsBody
	if err := json.Unmarshal(get(t, s.Handler(), "/metrics").Body.Bytes(), &mb); err != nil {
		t.Fatal(err)
	}
	return mb
}

// TestSingleFlight: N concurrent identical misses cost one simulation, one
// queue slot and one worker, and every client gets the leader's bytes.
func TestSingleFlight(t *testing.T) {
	const n = 8
	cr := &countedRun{release: make(chan struct{})}
	// One queue slot: were followers enqueued, seven of eight would get 429.
	s := testServer(t, Config{Workers: 1, QueueDepth: 1, run: cr.run})
	wait := postAll(t, s, n, jobBody(1))
	close(cr.release)

	var first []byte
	roles := map[string]int{}
	for i, w := range wait() {
		if w.Code != http.StatusOK {
			t.Fatalf("post %d = %d: %s", i, w.Code, w.Body.String())
		}
		env := decodeEnvelope(t, w)
		if hdr := w.Header().Get("X-AA-Cache"); hdr != env.Cache {
			t.Errorf("post %d: header %q, envelope %q", i, hdr, env.Cache)
		}
		roles[env.Cache]++
		if first == nil {
			first = env.Result
		} else if !bytes.Equal(first, env.Result) {
			t.Errorf("post %d result differs:\n%s\n%s", i, env.Result, first)
		}
	}
	if roles["miss"] != 1 || roles["shared"] != n-1 {
		t.Errorf("roles %v, want 1 miss and %d shared", roles, n-1)
	}
	if got := cr.calls.Load(); got != 1 {
		t.Errorf("run hook called %d times for %d identical posts", got, n)
	}

	// The flight's result is cached: one more post is a plain hit.
	if w := post(t, s.Handler(), "/v1/jobs", jobBody(1)); w.Header().Get("X-AA-Cache") != "hit" {
		t.Errorf("replay X-AA-Cache = %q, want hit", w.Header().Get("X-AA-Cache"))
	}
	mb := metricsOf(t, s)
	if mb.SimRuns != 1 || mb.CacheShared != n-1 || mb.CacheMisses != n || mb.CacheHits != 1 || mb.JobsAccepted != n+1 || mb.JobsRejected != 0 {
		t.Errorf("sim_runs %d shared %d misses %d hits %d accepted %d rejected %d, want 1 %d %d 1 %d 0",
			mb.SimRuns, mb.CacheShared, mb.CacheMisses, mb.CacheHits, mb.JobsAccepted, mb.JobsRejected, n-1, n, n+1)
	}
	// Nine requests' worth of events asked for, one simulated.
	if mb.CacheEventsSaved != n*stubEvents || mb.SimEvents != stubEvents || mb.CacheCostHitRate != float64(n)/float64(n+1) {
		t.Errorf("events saved %d simulated %d cost hit rate %v, want %d %d %v",
			mb.CacheEventsSaved, mb.SimEvents, mb.CacheCostHitRate, n*stubEvents, stubEvents, float64(n)/float64(n+1))
	}
}

// postCtx posts under a caller-controlled request context, as a client that
// can hang up.
func postCtx(ctx context.Context, s *Server, body string) <-chan *httptest.ResponseRecorder {
	out := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body)).WithContext(ctx))
		out <- w
	}()
	return out
}

// TestLeaderDisconnect: the request that started a flight going away fails
// only that request; the flight is canceled when nobody at all is left, and
// a canceled flight is not joined.
func TestLeaderDisconnect(t *testing.T) {
	cr := &countedRun{release: make(chan struct{})}
	s := testServer(t, Config{Workers: 1, run: cr.run})

	leaderCtx, hangUp := context.WithCancel(context.Background())
	leader := postCtx(leaderCtx, s, jobBody(1))
	waitFor(t, "the leader to start running", func() bool { return cr.calls.Load() == 1 })
	follower := postCtx(context.Background(), s, jobBody(1))
	waitFor(t, "the follower to attach", func() bool { return s.met.misses.Load() == 2 })

	hangUp()
	if w := <-leader; w.Code != http.StatusRequestTimeout || decodeEnvelope(t, w).Code != "canceled" {
		t.Errorf("disconnected leader = %d %s, want 408 canceled", w.Code, w.Body.String())
	}
	close(cr.release)
	w := <-follower
	if w.Code != http.StatusOK || w.Header().Get("X-AA-Cache") != "shared" {
		t.Fatalf("follower after the leader left = %d %q: %s", w.Code, w.Header().Get("X-AA-Cache"), w.Body.String())
	}
	if got := cr.calls.Load(); got != 1 {
		t.Errorf("run hook called %d times, want 1", got)
	}

	// A lone request hanging up cancels its flight, and the next request for
	// the key starts a new one instead of joining the dead one.
	cr.release = make(chan struct{})
	aloneCtx, hangUp2 := context.WithCancel(context.Background())
	alone := postCtx(aloneCtx, s, jobBody(2))
	waitFor(t, "the second flight to start", func() bool { return cr.calls.Load() == 2 })
	hangUp2()
	if w := <-alone; w.Code != http.StatusRequestTimeout {
		t.Errorf("lone disconnected request = %d, want 408", w.Code)
	}
	waitFor(t, "the abandoned run to see its cancellation", func() bool { return s.met.inFlight.Load() == 0 })
	close(cr.release)
	if w := post(t, s.Handler(), "/v1/jobs", jobBody(2)); w.Code != http.StatusOK || w.Header().Get("X-AA-Cache") != "miss" {
		t.Errorf("request after an abandoned flight = %d %q, want 200 miss", w.Code, w.Header().Get("X-AA-Cache"))
	}
	if got := cr.calls.Load(); got != 3 {
		t.Errorf("run hook called %d times, want 3 (the abandoned flight is not reused)", got)
	}
}

// TestFailedFlightShared: a failure reaches every attached request and is
// not cached, so the next request simulates again.
func TestFailedFlightShared(t *testing.T) {
	cr := &countedRun{release: make(chan struct{}), failOn: 1}
	s := testServer(t, Config{Workers: 1, run: cr.run})
	wait := postAll(t, s, 3, jobBody(1))
	close(cr.release)
	for i, w := range wait() {
		env := decodeEnvelope(t, w)
		if w.Code != http.StatusInternalServerError || env.Code != "internal" || !strings.Contains(env.Error, "simulation failed") {
			t.Errorf("post %d = %d %s, want the flight's 500", i, w.Code, w.Body.String())
		}
	}
	if n, _, _ := s.cache.counts(); n != 0 {
		t.Errorf("failed flight left %d cache entries", n)
	}
	if w := post(t, s.Handler(), "/v1/jobs", jobBody(1)); w.Code != http.StatusOK || w.Header().Get("X-AA-Cache") != "miss" {
		t.Errorf("retry after a failed flight = %d %q, want 200 miss", w.Code, w.Header().Get("X-AA-Cache"))
	}
	if mb := metricsOf(t, s); cr.calls.Load() != 2 || mb.SimRuns != 1 || mb.CacheShared != 0 || mb.CacheEventsSaved != 0 {
		t.Errorf("calls %d sim_runs %d shared %d saved %d, want 2 1 0 0", cr.calls.Load(), mb.SimRuns, mb.CacheShared, mb.CacheEventsSaved)
	}
}

// TestWorkerPanicContained: a panic inside a simulation is that flight's 500,
// for leader and followers alike; the worker survives it and starts over with
// a fresh NetCache.
func TestWorkerPanicContained(t *testing.T) {
	cr := &countedRun{release: make(chan struct{}), panicOn: 1}
	s := testServer(t, Config{Workers: 1, run: cr.run})
	wait := postAll(t, s, 2, jobBody(1))
	close(cr.release)
	key := ""
	for i, w := range wait() {
		env := decodeEnvelope(t, w)
		key = env.Key
		if w.Code != http.StatusInternalServerError || env.Code != "internal" {
			t.Fatalf("post %d = %d %s, want 500 internal", i, w.Code, w.Body.String())
		}
		if !strings.Contains(env.Error, key) || !strings.Contains(env.Error, "router state corrupt") {
			t.Errorf("post %d error %q does not name the key and the panic", i, env.Error)
		}
	}
	// The only worker is still there, and nothing of the panic was cached.
	if w := post(t, s.Handler(), "/v1/jobs", jobBody(1)); w.Code != http.StatusOK || w.Header().Get("X-AA-Cache") != "miss" {
		t.Fatalf("post after the panic = %d %q: %s", w.Code, w.Header().Get("X-AA-Cache"), w.Body.String())
	}
	if w := post(t, s.Handler(), "/v1/jobs", jobBody(2)); w.Code != http.StatusOK {
		t.Fatalf("second post after the panic = %d: %s", w.Code, w.Body.String())
	}
	c1, _ := cr.caches.Load(int64(1))
	c2, _ := cr.caches.Load(int64(2))
	c3, _ := cr.caches.Load(int64(3))
	if c1 == c2 {
		t.Error("worker kept the NetCache a panic may have left half-mutated")
	}
	if c2 != c3 {
		t.Error("worker dropped its NetCache without a panic")
	}
	if mb := metricsOf(t, s); mb.InFlight != 0 || mb.SimRuns != 2 {
		t.Errorf("in_flight %d sim_runs %d after a contained panic, want 0 and 2", mb.InFlight, mb.SimRuns)
	}
}

// TestCacheRefusedMetric: on a full cache a result that scores no higher
// than the resident is refused, and /metrics counts it; asked for again, it
// outscores the resident and evicts it.
func TestCacheRefusedMetric(t *testing.T) {
	cr := &countedRun{release: make(chan struct{})}
	close(cr.release)
	s := testServer(t, Config{Workers: 1, CacheEntries: 1, run: cr.run})
	for i, want := range []struct {
		seed               int
		cache              string
		evictions, refused int64
	}{{1, "miss", 0, 0}, {2, "miss", 0, 1}, {2, "miss", 1, 1}, {2, "hit", 1, 1}, {1, "miss", 1, 2}} {
		w := post(t, s.Handler(), "/v1/jobs", jobBody(want.seed))
		mb := metricsOf(t, s)
		if got := w.Header().Get("X-AA-Cache"); w.Code != http.StatusOK || got != want.cache ||
			mb.CacheEvictions != want.evictions || mb.CacheRefused != want.refused {
			t.Errorf("post %d (seed %d) = %d %q, evictions %d refused %d; want 200 %q, %d and %d",
				i, want.seed, w.Code, got, mb.CacheEvictions, mb.CacheRefused, want.cache, want.evictions, want.refused)
		}
	}
}
