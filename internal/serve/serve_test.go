package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"alltoall/internal/collective"
	"alltoall/internal/network"
	"alltoall/internal/parallel"
	"alltoall/internal/torus"
)

// goldenFaults matches the aasim golden fixture: a permanent kill plus a
// transient outage on a 4x4x2 torus.
const goldenFaults = "0:5:+x:kill;300:12:-y:down;2500:12:-y:up"

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// post submits a request body to the server's handler and returns the
// recorded response.
func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w
}

func decodeEnvelope(t *testing.T, w *httptest.ResponseRecorder) jobEnvelope {
	t.Helper()
	var env jobEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("decode envelope from %q: %v", w.Body.String(), err)
	}
	return env
}

// TestServedMatchesDirect is the tentpole's correctness bar: the result
// bytes served over HTTP must be identical to a direct RunRequest of the
// same Request, across shard counts and with faults on or off, and a cache
// hit must replay the same bytes again.
func TestServedMatchesDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, shards := range []int{1, 4} {
		for _, faults := range []string{"", goldenFaults} {
			name := fmt.Sprintf("shards=%d/faults=%v", shards, faults != "")
			t.Run(name, func(t *testing.T) {
				// A cold cache per case: the key does not carry the shard
				// count, so a shared server would answer shards=4 from the
				// shards=1 entry and never serve a sharded run. The ceiling
				// is raised because it defaults to this box's cores.
				h := testServer(t, Config{Workers: 2, MaxShards: 4}).Handler()
				req := collective.Request{
					Strategy: collective.StratAR,
					Shape:    torus.New(4, 4, 2),
					MsgBytes: 240,
					Seed:     1,
					Check:    true,
					Shards:   shards,
					Faults:   faults,
				}
				direct, err := collective.RunRequest(context.Background(), req)
				if err != nil {
					t.Fatalf("direct run: %v", err)
				}
				want, err := json.Marshal(direct)
				if err != nil {
					t.Fatal(err)
				}
				body, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				w := post(t, h, "/v1/jobs", string(body))
				if w.Code != http.StatusOK {
					t.Fatalf("POST = %d: %s", w.Code, w.Body.String())
				}
				env := decodeEnvelope(t, w)
				if !bytes.Equal([]byte(env.Result), want) {
					t.Errorf("served result differs from direct run\nserved: %s\ndirect: %s", env.Result, want)
				}
				if env.Key != req.Key() {
					t.Errorf("served key %q, want %q", env.Key, req.Key())
				}
				// The replay from the cache must be the same bytes again.
				w2 := post(t, h, "/v1/jobs", string(body))
				if w2.Code != http.StatusOK {
					t.Fatalf("cached POST = %d: %s", w2.Code, w2.Body.String())
				}
				if hdr := w2.Header().Get("X-AA-Cache"); hdr != "hit" {
					t.Errorf("second POST X-AA-Cache = %q, want hit", hdr)
				}
				env2 := decodeEnvelope(t, w2)
				if !bytes.Equal([]byte(env2.Result), want) {
					t.Errorf("cache replay differs from direct run\nserved: %s\ndirect: %s", env2.Result, want)
				}
			})
		}
	}
}

// TestShardsShareOneCacheEntry: the shard count schedules a run and changes
// no Result byte, so the same job asked for at another shard count is a cache
// hit, not a second simulation.
func TestShardsShareOneCacheEntry(t *testing.T) {
	s := testServer(t, Config{Workers: 1, MaxShards: 2}) // admitted on a 1-core box too
	body := func(shards int) string {
		return fmt.Sprintf(`{"strategy":"AR","shape":"4x4x2","msg_bytes":240,"seed":1,"shards":%d}`, shards)
	}
	first := post(t, s.Handler(), "/v1/jobs", body(1))
	second := post(t, s.Handler(), "/v1/jobs", body(2))
	for i, w := range []*httptest.ResponseRecorder{first, second} {
		if want := []string{"miss", "hit"}[i]; w.Code != http.StatusOK || w.Header().Get("X-AA-Cache") != want {
			t.Fatalf("post %d = %d %q, want 200 %s: %s", i, w.Code, w.Header().Get("X-AA-Cache"), want, w.Body.String())
		}
	}
	a, b := decodeEnvelope(t, first), decodeEnvelope(t, second)
	if a.Key != b.Key || !bytes.Equal(a.Result, b.Result) {
		t.Errorf("shards 1 and 2 answered differently:\n%s %s\n%s %s", a.Key, a.Result, b.Key, b.Result)
	}
	if b.Request.Shards != 2 {
		t.Errorf("the hit echoes shards %d, want the poster's own 2", b.Request.Shards)
	}
	if mb := metricsOf(t, s); mb.SimRuns != 1 {
		t.Errorf("sim_runs %d, want 1", mb.SimRuns)
	}
}

// TestFullPoolRunsOneEngine: on a server with a worker for every core, a
// 128-node job that leaves shards unset runs on one engine (no window barrier
// moves sync_horizon_advances), while a forced "shards":2 still splits it;
// both serve the bytes of a direct run.
func TestFullPoolRunsOneEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	req := collective.Request{Strategy: collective.StratAR, Shape: torus.New(8, 4, 4), MsgBytes: 64, Seed: 1}
	direct, err := collective.RunRequest(context.Background(), req)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 2} {
		// A server per case: the key does not carry the shard count.
		s := testServer(t, Config{Workers: runtime.GOMAXPROCS(0), MaxShards: 2})
		r := req
		r.Shards = shards
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		w := post(t, s.Handler(), "/v1/jobs", string(body))
		if w.Code != http.StatusOK {
			t.Fatalf("shards=%d: POST = %d: %s", shards, w.Code, w.Body.String())
		}
		if env := decodeEnvelope(t, w); !bytes.Equal(env.Result, want) || env.Request != r {
			t.Errorf("shards=%d: served %s for %+v\ndirect: %s", shards, env.Result, env.Request, want)
		}
		if adv := metricsOf(t, s).SyncAdvances; (adv > 0) != (shards == 2) {
			t.Errorf("shards=%d: sync_horizon_advances %d on a pool of %d workers", shards, adv, runtime.GOMAXPROCS(0))
		}
	}
}

// TestOneWorkerPoolCores: a server's worker holds its core for as long as
// the server runs, and a job's run counts that core as its first engine. So
// with one worker on two cores, a 128-node job that leaves shards unset takes
// the idle core too (a window barrier moves sync_horizon_advances), and Close
// returns every core the server held.
func TestOneWorkerPoolCores(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	before := parallel.CoresInUse()
	s := testServer(t, Config{Workers: 1})
	w := post(t, s.Handler(), "/v1/jobs", `{"strategy":"AR","shape":"8x4x4","msg_bytes":64,"seed":1}`)
	if w.Code != http.StatusOK {
		t.Fatalf("POST = %d: %s", w.Code, w.Body.String())
	}
	if n := parallel.CoresInUse(); n != before+1 {
		t.Errorf("%d cores in use with one idle worker, want %d", n, before+1)
	}
	if adv := metricsOf(t, s).SyncAdvances; adv == 0 {
		t.Errorf("sync_horizon_advances 0: the job ran on one engine beside an idle core")
	}
	s.Close()
	if n := parallel.CoresInUse(); n != before {
		t.Errorf("%d cores in use after Close, %d before New", n, before)
	}
}

func TestBadShapeMapping(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()
	for name, body := range map[string]string{
		"parse":    `{"strategy":"AR","shape":"0x8","msg_bytes":64}`,
		"validate": `{"strategy":"AR","msg_bytes":64}`,
	} {
		w := post(t, h, "/v1/jobs", body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, w.Code)
		}
		var eb errorBody
		json.Unmarshal(w.Body.Bytes(), &eb)
		if eb.Code != "bad_shape" {
			t.Errorf("%s: code %q, want bad_shape: %s", name, eb.Code, w.Body.String())
		}
	}
	// A syntactically broken body is bad_request, not a shape error.
	w := post(t, h, "/v1/jobs", `{"strategy":`)
	var eb errorBody
	json.Unmarshal(w.Body.Bytes(), &eb)
	if w.Code != http.StatusBadRequest || eb.Code != "bad_request" {
		t.Errorf("broken JSON: %d %q, want 400 bad_request", w.Code, eb.Code)
	}
}

// TestCrossFieldErrorsAreBadRequests: a request whose fields are each in
// range but contradict each other (a factorization that does not cover the
// partition, a credit window smaller than its batch) is the client's error.
// It is answered 400 before admission - it used to pass Validate, occupy a
// worker, fail inside the runner and come back 500 "internal".
func TestCrossFieldErrorsAreBadRequests(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()
	if w := post(t, h, "/v1/jobs", `{"strategy":"VMesh","shape":"4x4x2","msg_bytes":8,"vmesh_rows":4,"vmesh_cols":8}`); w.Code != http.StatusOK {
		t.Fatalf("valid forced factorization: %d %s", w.Code, w.Body.String())
	}
	before := metricsOf(t, s)
	for name, body := range map[string]string{
		"vmesh cover":   `{"strategy":"VMesh","shape":"4x4x2","msg_bytes":8,"vmesh_rows":3,"vmesh_cols":5}`,
		"credit window": `{"strategy":"TPS","shape":"4x4x2","msg_bytes":8,"tps_credit_window":2,"tps_credit_batch":5}`,
	} {
		w := post(t, h, "/v1/jobs", body)
		var eb errorBody
		json.Unmarshal(w.Body.Bytes(), &eb)
		if w.Code != http.StatusBadRequest || eb.Code != "bad_request" {
			t.Errorf("%s: %d %q, want 400 bad_request: %s", name, w.Code, eb.Code, w.Body.String())
		}
	}
	after := metricsOf(t, s)
	if before.SimRuns != 1 || after.SimRuns != before.SimRuns || after.JobsAccepted != before.JobsAccepted {
		t.Errorf("malformed requests reached the scheduler: sim_runs %d -> %d, jobs_accepted %d -> %d",
			before.SimRuns, after.SimRuns, before.JobsAccepted, after.JobsAccepted)
	}
}

// TestShapeInvalidFaultsAreBadRequests: a fault schedule that parses but
// names a node the shape lacks, a mesh-edge link, or a revival after a kill
// is the client's error, answered 400 before admission: no job is queued.
func TestShapeInvalidFaultsAreBadRequests(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()
	for name, body := range map[string]string{
		"node":      `{"strategy":"AR","shape":"4x4x2","msg_bytes":8,"faults":"0:999:+x:kill"}`,
		"mesh edge": `{"strategy":"AR","shape":"4x4x4M","msg_bytes":8,"faults":"0:0:-z:kill"}`,
		"revival":   `{"strategy":"AR","shape":"4x4x2","msg_bytes":8,"faults":"0:1:+x:kill;5:1:+x:up"}`,
	} {
		w := post(t, h, "/v1/jobs", body)
		var eb errorBody
		json.Unmarshal(w.Body.Bytes(), &eb)
		if w.Code != http.StatusBadRequest || eb.Code != "bad_request" {
			t.Errorf("%s: %d %q, want 400 bad_request: %s", name, w.Code, eb.Code, w.Body.String())
		}
	}
	if mb := metricsOf(t, s); mb.SimRuns != 0 || mb.JobsAccepted != 0 {
		t.Errorf("invalid schedules reached the scheduler: sim_runs %d, jobs_accepted %d", mb.SimRuns, mb.JobsAccepted)
	}
}

// blockingRun is a runFunc that parks jobs until released (or their context
// dies), for deterministic queue-full and cancellation tests.
func blockingRun(release chan struct{}) runFunc {
	return func(ctx context.Context, req collective.Request, cache *collective.NetCache, ss *network.SyncStats) (collective.Result, error) {
		select {
		case <-release:
			return collective.Result{Strategy: req.Strategy, Shape: req.Shape, MsgBytes: req.MsgBytes}, nil
		case <-ctx.Done():
			return collective.Result{}, fmt.Errorf("run: %w", network.ErrCanceled)
		}
	}
}

func jobBody(seed int) string {
	return fmt.Sprintf(`{"strategy":"AR","shape":"4x4x2","msg_bytes":64,"seed":%d}`, seed)
}

func TestQueueFullBackpressure(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := testServer(t, Config{Workers: 1, QueueDepth: 1, run: blockingRun(release)})
	h := s.Handler()

	// First job occupies the worker, second the single queue slot. Distinct
	// seeds keep the cache and single-flight out of the way.
	first := post(t, h, "/v1/jobs?async=1", jobBody(1))
	if first.Code != http.StatusAccepted {
		t.Fatalf("first job: %d %s", first.Code, first.Body.String())
	}
	waitDepth := func(want int) {
		t.Helper()
		for i := 0; i < 200; i++ {
			if s.sched.depth() == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("queue depth never reached %d", want)
	}
	waitDepth(0) // worker picked up job 1
	second := post(t, h, "/v1/jobs?async=1", jobBody(2))
	if second.Code != http.StatusAccepted {
		t.Fatalf("second job: %d %s", second.Code, second.Body.String())
	}
	waitDepth(1)

	third := post(t, h, "/v1/jobs?async=1", jobBody(3))
	if third.Code != http.StatusTooManyRequests {
		t.Fatalf("third job: %d, want 429: %s", third.Code, third.Body.String())
	}
	if third.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	var eb errorBody
	json.Unmarshal(third.Body.Bytes(), &eb)
	if eb.Code != "queue_full" {
		t.Errorf("code %q, want queue_full", eb.Code)
	}
}

func TestCanceledMapping(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := testServer(t, Config{Workers: 1, run: blockingRun(release)})
	w := post(t, s.Handler(), "/v1/jobs", `{"strategy":"AR","shape":"4x4x2","msg_bytes":64,"timeout_ms":20}`)
	if w.Code != http.StatusRequestTimeout {
		t.Fatalf("status %d, want 408: %s", w.Code, w.Body.String())
	}
	env := decodeEnvelope(t, w)
	if env.Code != "canceled" || env.Status != "failed" {
		t.Errorf("code %q status %q, want canceled/failed", env.Code, env.Status)
	}
}

// TestMaxTimeMapping drives a real simulation into its MaxTime bound and
// checks the 422 mapping end to end (engine sentinel -> scheduler -> HTTP).
func TestMaxTimeMapping(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	w := post(t, s.Handler(), "/v1/jobs", `{"strategy":"AR","shape":"4x4x2","msg_bytes":240,"max_time":50}`)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", w.Code, w.Body.String())
	}
	env := decodeEnvelope(t, w)
	if env.Code != "max_time" {
		t.Errorf("code %q, want max_time", env.Code)
	}
}

// TestLimitsRejected: the shard ceiling defaults to the cores of the machine
// (a forced count above them only adds barrier goroutines), so one past
// GOMAXPROCS is refused with a message naming the limit while the count
// itself is admitted.
func TestLimitsRejected(t *testing.T) {
	s := testServer(t, Config{Workers: 1, MaxNodes: 100})
	h := s.Handler()
	cores := runtime.GOMAXPROCS(0)
	for name, c := range map[string]struct{ body, msg string }{
		"shards": {fmt.Sprintf(`{"strategy":"AR","shape":"4x4x2","msg_bytes":64,"shards":%d}`, cores+1),
			fmt.Sprintf("shards %d exceeds limit %d", cores+1, cores)},
		"nodes": {`{"strategy":"AR","shape":"8x8x8","msg_bytes":64}`, "512 nodes exceeds limit 100"},
	} {
		w := post(t, h, "/v1/jobs", c.body)
		var eb errorBody
		json.Unmarshal(w.Body.Bytes(), &eb)
		if w.Code != http.StatusBadRequest || eb.Code != "limits" || !strings.Contains(eb.Error, c.msg) {
			t.Errorf("%s: %d %q %q, want 400 limits %q", name, w.Code, eb.Code, eb.Error, c.msg)
		}
	}
	w := post(t, h, "/v1/jobs", fmt.Sprintf(`{"strategy":"AR","shape":"4x4x2","msg_bytes":64,"shards":%d}`, cores))
	if w.Code != http.StatusOK {
		t.Errorf("shards = the core count: %d %s, want 200", w.Code, w.Body.String())
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := testServer(t, Config{Workers: 2})
	h := s.Handler()
	req := collective.Request{Strategy: collective.StratAR, Shape: torus.New(4, 4, 2), MsgBytes: 64, Seed: 9}
	body, _ := json.Marshal(req)
	w := post(t, h, "/v1/jobs?async=1", string(body))
	if w.Code != http.StatusAccepted {
		t.Fatalf("async POST = %d: %s", w.Code, w.Body.String())
	}
	env := decodeEnvelope(t, w)
	if env.ID == "" {
		t.Fatal("202 without job id")
	}
	var final jobEnvelope
	deadline := time.Now().Add(30 * time.Second)
	for {
		pw := get(t, h, "/v1/jobs/"+env.ID)
		if pw.Code != http.StatusOK {
			t.Fatalf("poll = %d: %s", pw.Code, pw.Body.String())
		}
		final = decodeEnvelope(t, pw)
		if final.Status == "done" || final.Status == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", final.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if final.Status != "done" {
		t.Fatalf("job failed: %s", final.Error)
	}
	direct, err := collective.RunRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(direct)
	if !bytes.Equal([]byte(final.Result), want) {
		t.Errorf("async result differs from direct run\nserved: %s\ndirect: %s", final.Result, want)
	}
	if nf := get(t, h, "/v1/jobs/j-999999"); nf.Code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", nf.Code)
	}
}

// TestConcurrentSoak hammers the scheduler and cache with concurrent mixed-
// shape jobs (run under -race in CI): every response for a given Request
// must carry identical result bytes, single-flight and the cache together
// simulate each shape exactly once, and a replay of each shape after the
// wave is a real cache hit. (Inside the wave every request may join a
// flight before any finishes, so the hits are counted after the replay.)
func TestConcurrentSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := testServer(t, Config{Workers: 4, QueueDepth: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	shapes := []string{"4x4x2", "4x2x2", "8x4x1", "4x4x1M"}
	const perShape = 10 // 40 jobs total, ≥32 required
	var wg sync.WaitGroup
	results := make([][]byte, len(shapes)*perShape)
	errs := make([]error, len(shapes)*perShape)
	for si, shape := range shapes {
		for k := 0; k < perShape; k++ {
			wg.Add(1)
			go func(idx int, shape string) {
				defer wg.Done()
				body := fmt.Sprintf(`{"strategy":"AR","shape":"%s","msg_bytes":64,"seed":1}`, shape)
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					errs[idx] = err
					return
				}
				defer resp.Body.Close()
				var env jobEnvelope
				if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
					errs[idx] = fmt.Errorf("decode: %w", err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs[idx] = fmt.Errorf("status %d: %s %s", resp.StatusCode, env.Error, env.Code)
					return
				}
				results[idx] = []byte(env.Result)
			}(si*perShape+k, shape)
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	for si := range shapes {
		base := results[si*perShape]
		for k := 1; k < perShape; k++ {
			if !bytes.Equal(base, results[si*perShape+k]) {
				t.Errorf("shape %s: job %d served different bytes under concurrency", shapes[si], k)
			}
		}
	}

	for si, shape := range shapes {
		body := fmt.Sprintf(`{"strategy":"AR","shape":"%s","msg_bytes":64,"seed":1}`, shape)
		w := post(t, s.Handler(), "/v1/jobs", body)
		if w.Code != http.StatusOK {
			t.Fatalf("replay of %s: POST = %d: %s", shape, w.Code, w.Body.String())
		}
		if env := decodeEnvelope(t, w); !bytes.Equal(env.Result, results[si*perShape]) {
			t.Errorf("replay of %s served different bytes", shape)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mb metricsBody
	if err := json.NewDecoder(resp.Body).Decode(&mb); err != nil {
		t.Fatal(err)
	}
	if mb.CacheHits == 0 {
		t.Error("soak finished with zero cache hits")
	}
	if mb.CacheHitRate <= 0 {
		t.Errorf("cache hit rate %v, want > 0", mb.CacheHitRate)
	}
	if want := int64(len(shapes) * (perShape + 1)); mb.JobsAccepted != want {
		t.Errorf("jobs_accepted %d, want %d", mb.JobsAccepted, want)
	}
	if mb.SimRuns != int64(len(shapes)) || len(mb.Strategies) == 0 {
		t.Errorf("metrics: sim runs %d, want one per shape (%d); strategies %d", mb.SimRuns, len(shapes), len(mb.Strategies))
	}
}

func TestStrategiesAndHealth(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	h := s.Handler()
	w := get(t, h, "/v1/strategies")
	var body struct {
		Strategies []string `json:"strategies"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || len(body.Strategies) < 5 {
		t.Errorf("strategies = %v (%v)", body.Strategies, err)
	}
	if w := get(t, h, "/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz = %d", w.Code)
	}
}

func TestShutdownRejectsSubmissions(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Close()
	w := post(t, s.Handler(), "/v1/jobs", jobBody(1))
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("post after Close = %d, want 503", w.Code)
	}
}
