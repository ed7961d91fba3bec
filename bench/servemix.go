package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"alltoall/internal/collective"
	"alltoall/internal/serve"
)

// Sizes of the serve-mix workload. The population is larger than the
// server's result cache, so eviction and admission matter; the pass length
// gives a run of a few passes a couple of thousand latency samples.
const (
	serveKeys       = 400
	serveCache      = 64
	serveQueueDepth = 8
	serveWarmUp     = 64
	servePassLen    = 400
)

// serveInstance is the serve-mix workload: closed loop, e.par clients over
// real loopback TCP against an in-process aaserve. Keys are drawn Zipf(1.0)
// from a population of distinct Requests; each client's sequence is a pure
// function of the seed and every pass replays it, so after the first pass
// the cache starts each pass in the state the same sequence left it in.
type serveInstance struct {
	e   env
	srv *serve.Server
	ts  *httptest.Server
	tr  atomic.Pointer[tracer] // the pass in flight, read by the handler wrapper

	keys   []collective.Request
	bodies [][]byte
	seqs   [][]int // per client, indices into keys
	byRank []int   // key index at each Zipf rank

	client *http.Client
	desc   string // inputs()

	hashes map[int][sha256.Size]byte // first result bytes seen per key
	served map[int]servedResult      // latest decoded result per key
	base   serveCounters             // /metrics after the warm-up

	// Every response of the untraced passes, for the per-layer split.
	samples []serveSample
}

type serveSample struct {
	key   int
	d     time.Duration
	hit   bool
	bytes int
}

// servedResult is the part of a served result the checks read.
type servedResult struct {
	MsgBytes        int     `json:"msg_bytes"`
	Time            int64   `json:"time"`
	PercentPeak     float64 `json:"percent_peak"`
	PacketsInjected int64   `json:"packets_injected"`
	PayloadBytes    int64   `json:"payload_bytes"`
	Events          int64   `json:"events"`
	QueuedEvents    int64   `json:"queued_events"`
}

// serveCounters is the part of GET /metrics the per-layer metrics read.
type serveCounters struct {
	Rejected int64 `json:"jobs_rejected"`
	Hits     int64 `json:"cache_hits"`
	Misses   int64 `json:"cache_misses"`
	SimRuns  int64 `json:"sim_runs"`
}

// servePopulation generates the key population. Its structure is the same
// for every seed - the cross product of four small shapes, four strategies
// and four message sizes, one in ten with check and one in ten with observe,
// in a fixed popularity order - and the seed sets each Request's own seed, so
// every seed gives 400 different simulations of the same cost. Every block of
// 64 consecutive ranks holds each (shape, strategy, size) combination once,
// shuffled so that cost and popularity are unrelated.
func servePopulation(seed uint64, smoke bool) (keys []collective.Request, byRank []int) {
	shapes := []string{"4x4x2", "4x4x4", "8x4x2M", "8x4x4"}
	sizes := []int{8, 64, 240, 480}
	n := serveKeys
	if smoke {
		shapes = []string{"4x2", "4x4", "4x2x2M", "4x4x2"}
		sizes = []int{8, 64}
		n = 96
	}
	strats := []collective.Strategy{collective.StratAR, collective.StratDR, collective.StratTPS, collective.StratVMesh}
	combos := len(shapes) * len(strats) * len(sizes)
	for i := 0; i < n; i++ {
		c := i % combos
		keys = append(keys, collective.Request{
			Strategy: strats[c%len(strats)],
			Shape:    mustShape(shapes[c/len(strats)%len(shapes)]),
			MsgBytes: sizes[c/(len(strats)*len(shapes))],
			Seed:     mix64(seed ^ uint64(i)<<32),
			Check:    i%10 == 3,
			Observe:  i%10 == 7,
		})
	}
	// Keys i*combos..(i+1)*combos-1 are one block; shuffle ranks within it.
	byRank = make([]int, n)
	for i := range byRank {
		byRank[i] = i
	}
	rng := uint64(0x5eed) // not the run seed: which key is hot must not change the work
	for lo := 0; lo < n; lo += combos {
		block := byRank[lo:min(lo+combos, n)]
		for i := len(block) - 1; i > 0; i-- {
			rng = mix64(rng)
			j := int(rng % uint64(i+1))
			block[i], block[j] = block[j], block[i]
		}
	}
	return keys, byRank
}

// zipfRanks returns n popularity ranks in 0..keys-1 with frequencies
// proportional to 1/(rank+1): a systematic sample of Zipf(1.0), one draw at
// each quantile (k+u)/n, shuffled by the seed. The offset u belongs to the
// client, not the seed: a client sends the same multiset of keys whatever the
// seed, each rank within one draw of its expected count, so runs with
// different seeds do the same work in a different order. (Keys cost up to
// 100x one another; sixty tail draws chosen by the seed moved a pass's wall
// time by 10 %.)
func zipfRanks(keys, n int, u float64, seed uint64) []int {
	cdf := make([]float64, keys)
	var sum float64
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	ranks := make([]int, n)
	for k := range ranks {
		q := (float64(k) + u) / float64(n) * sum
		ranks[k] = min(sort.SearchFloat64s(cdf, q), keys-1)
	}
	rng := seed
	for i := n - 1; i > 0; i-- {
		rng = mix64(rng)
		j := int(rng % uint64(i+1))
		ranks[i], ranks[j] = ranks[j], ranks[i]
	}
	return ranks
}

// serveSequences draws each client's key sequence for one pass of n requests.
func serveSequences(seed uint64, clients, n int, byRank []int) [][]int {
	seqs := make([][]int, clients)
	for c := range seqs {
		u := (float64(c) + 0.5) / float64(clients)
		for _, r := range zipfRanks(len(byRank), n/clients, u, mix64(seed+uint64(c))) {
			seqs[c] = append(seqs[c], byRank[r])
		}
	}
	return seqs
}

func prepareServeMix(e env) (instance, error) {
	in := &serveInstance{
		e:      e,
		hashes: make(map[int][sha256.Size]byte),
		served: make(map[int]servedResult),
	}
	in.keys, in.byRank = servePopulation(e.seed, e.smoke())
	for _, k := range in.keys {
		if err := k.Validate(); err != nil {
			return nil, err
		}
		body, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
	}
	passLen, warm, cacheEntries := servePassLen, serveWarmUp, serveCache
	if e.smoke() {
		passLen, warm, cacheEntries = 40, 16, 8
	}
	in.seqs = serveSequences(e.seed, e.par, passLen, in.byRank)
	in.desc = fmt.Sprintf("%d keys Zipf(1.0), %d clients, %d requests a pass after %d warm-up, server Workers=%d QueueDepth=%d CacheEntries=%d",
		len(in.keys), e.par, passLen, warm, e.par, serveQueueDepth, cacheEntries)

	in.srv = serve.New(serve.Config{Workers: e.par, QueueDepth: serveQueueDepth, CacheEntries: cacheEntries})
	h := in.srv.Handler()
	if e.traced {
		h = in.spanHandler(h)
	}
	in.ts = httptest.NewServer(h)
	in.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: e.par}}

	p := in.drive(nil, serveSequences(e.seed^0x3a93, e.par, warm, in.byRank), false)
	if p.failed > 0 {
		in.close()
		return nil, fmt.Errorf("warm-up: %s", p.failures[0])
	}
	var err error
	if in.base, err = in.counters(); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// spanHandler wraps the server's handler for a traced run: one
// "serve.handler" span per request, parented to the client's span through
// two request headers.
func (in *serveInstance) spanHandler(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := in.tr.Load()
		if tr == nil {
			inner.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
		op, _ := strconv.Atoi(r.Header.Get("X-Bench-Op"))
		id := tr.begin("serve.handler", parent, op)
		inner.ServeHTTP(w, r)
		tr.end(id)
	})
}

func (in *serveInstance) counters() (serveCounters, error) {
	var c serveCounters
	resp, err := in.client.Get(in.ts.URL + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	return c, json.NewDecoder(resp.Body).Decode(&c)
}

// response is one request's outcome, kept raw until the pass is over so the
// clients do no decoding while the clock runs.
type response struct {
	key    int
	d      time.Duration
	status int
	hit    bool
	body   []byte
	err    error
}

// drive sends every client's sequence concurrently, closed loop, and then
// checks and folds the responses. keep appends the samples to in.samples.
func (in *serveInstance) drive(tr *tracer, seqs [][]int, keep bool) passStats {
	in.tr.Store(tr)
	out := make([][]response, len(seqs))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c] = make([]response, 0, len(seqs[c]))
			for _, k := range seqs[c] {
				out[c] = append(out[c], in.post(tr, k))
			}
		}(c)
	}
	wg.Wait()
	var p passStats
	p.wall = time.Since(start)
	in.tr.Store(nil)

	for _, rs := range out {
		for _, r := range rs {
			p.ops = append(p.ops, r.d)
			in.fold(&p, r)
			if keep {
				in.samples = append(in.samples, serveSample{key: r.key, d: r.d, hit: r.hit, bytes: len(r.body)})
			}
		}
	}
	return p
}

func (in *serveInstance) post(tr *tracer, k int) response {
	req, err := http.NewRequest(http.MethodPost, in.ts.URL+"/v1/jobs", bytes.NewReader(in.bodies[k]))
	if err != nil {
		return response{key: k, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	op := tr.newOp()
	id := tr.begin("client.request", 0, op)
	if tr != nil {
		req.Header.Set("X-Bench-Span", strconv.Itoa(id))
		req.Header.Set("X-Bench-Op", strconv.Itoa(op))
	}
	t0 := time.Now()
	resp, err := in.client.Do(req)
	if err != nil {
		tr.end(id)
		return response{key: k, d: time.Since(t0), err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	tr.end(id)
	return response{key: k, d: d, status: resp.StatusCode, hit: resp.Header.Get("X-AA-Cache") == "hit", body: body, err: err}
}

// fold checks one response and adds its simulator counts to the pass: a 200,
// result bytes equal to the first ones seen for the key (so a hit replays the
// miss), and the checks every all-to-all result must pass.
func (in *serveInstance) fold(p *passStats, r response) {
	what := fmt.Sprintf("key %d (%s %s m=%d)", r.key, in.keys[r.key].Strategy, in.keys[r.key].Shape, in.keys[r.key].MsgBytes)
	if r.err != nil || r.status != http.StatusOK {
		p.check(false, "%s: status %d, err %v", what, r.status, r.err)
		return
	}
	var env struct {
		Result json.RawMessage `json:"result"`
	}
	var res servedResult
	if err := json.Unmarshal(r.body, &env); err != nil {
		p.check(false, "%s: decode response: %v", what, err)
		return
	}
	if err := json.Unmarshal(env.Result, &res); err != nil {
		p.check(false, "%s: decode result: %v", what, err)
		return
	}
	sum := sha256.Sum256(env.Result)
	if first, seen := in.hashes[r.key]; seen {
		p.check(sum == first, "%s: result bytes differ from the first response for this key (hit=%v)", what, r.hit)
	} else {
		in.hashes[r.key] = sum
		p.check(true, "")
	}
	shape := in.keys[r.key].Shape
	n := int64(shape.P())
	p.check(res.PayloadBytes == n*(n-1)*int64(res.MsgBytes),
		"%s: delivered %d payload bytes, want %d", what, res.PayloadBytes, n*(n-1)*int64(res.MsgBytes))
	p.check(float64(res.Time) >= shape.PeakTime(res.MsgBytes) && res.PercentPeak <= 100,
		"%s: finished at %d units, before the Eq 2 peak %.0f", what, res.Time, shape.PeakTime(res.MsgBytes))
	in.served[r.key] = res
	if !r.hit { // the server simulated this one
		p.events += res.Events
		p.queued += res.QueuedEvents
		p.packets += res.PacketsInjected
		p.simTime += res.Time
	}
}

func (in *serveInstance) pass(tr *tracer) (passStats, error) {
	return in.drive(tr, in.seqs, tr == nil), nil
}

// verify runs the three hottest keys directly and requires the served
// results to agree with them.
func (in *serveInstance) verify() checks {
	var c checks
	for _, k := range in.byRank[:3] {
		got, seen := in.served[k]
		if !seen {
			continue
		}
		want, err := collective.RunRequest(context.Background(), in.keys[k])
		c.check(err == nil && got.Time == want.Time && got.Events == want.Events && got.PacketsInjected == want.PacketsInjected,
			"key %d: served time/events/packets %d/%d/%d, a direct RunRequest gives %d/%d/%d (err=%v)",
			k, got.Time, got.Events, got.PacketsInjected, want.Time, want.Events, want.PacketsInjected, err)
	}
	return c
}

func (in *serveInstance) layers(untraced, traced []passStats, tr *tracer) (map[string]float64, error) {
	out := make(map[string]float64)
	now, err := in.counters()
	if err != nil {
		return nil, err
	}
	passes := float64(len(untraced) + len(traced))
	hits, misses := now.Hits-in.base.Hits, now.Misses-in.base.Misses
	out["serve.hit_rate"] = float64(hits) / float64(hits+misses)
	out["serve.sim_runs"] = float64(now.SimRuns-in.base.SimRuns) / passes
	out["serve.rejected"] = float64(now.Rejected - in.base.Rejected)

	var hit, miss, size []float64
	firstMiss := make(map[int]time.Duration) // one miss latency per key
	for _, s := range in.samples {
		size = append(size, float64(s.bytes))
		if s.hit {
			hit = append(hit, micros(s.d))
			continue
		}
		miss = append(miss, millis(s.d))
		if _, seen := firstMiss[s.key]; !seen {
			firstMiss[s.key] = s.d
		}
	}
	out["serve.hit_p50_us"] = median(hit)
	out["serve.hit_p99_us"] = quantileSorted(sorted(hit), 0.99)
	out["serve.miss_p50_ms"] = median(miss)
	out["serve.resp_bytes_p50"] = median(size)

	// What serving adds to a miss: its latency under load less a direct
	// RunRequest of the same Request on the then idle box.
	keys := make([]int, 0, len(firstMiss))
	for k := range firstMiss {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var over []float64
	const sampled = 16
	for i := 0; i < min(len(keys), sampled); i++ {
		k := keys[i*len(keys)/min(len(keys), sampled)] // evenly over the population
		t0 := time.Now()
		if _, err := collective.RunRequest(context.Background(), in.keys[k]); err != nil {
			return nil, err
		}
		direct := time.Since(t0)
		over = append(over, millis(firstMiss[k]-direct))
	}
	out["serve.overhead_ms"] = median(over)

	st := selfTimes(tr.snapshot())
	if c := st["client.request"]; c.Total > 0 {
		out["serve.handler_share"] = float64(st["serve.handler"].Total) / float64(c.Total)
	}
	return out, nil
}

func (in *serveInstance) inputs() []string { return []string{in.desc} }

func (in *serveInstance) close() {
	in.ts.Close()
	in.srv.Close()
	in.client.CloseIdleConnections()
}
