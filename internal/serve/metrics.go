package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"alltoall/internal/collective"
	"alltoall/internal/network"
	"alltoall/internal/torus"
)

// latBuckets is the number of power-of-two latency buckets: bucket i counts
// jobs with wall latency < 2^i ms (the last bucket is the overflow).
const latBuckets = 16

// latHist is a log2-millisecond latency histogram for one strategy.
type latHist struct {
	counts [latBuckets]int64
	jobs   int64
	failed int64
	sumMs  float64
	maxMs  float64
}

func (h *latHist) note(d time.Duration, ok bool) {
	h.jobs++
	if !ok {
		h.failed++
		return
	}
	ms := float64(d) / float64(time.Millisecond)
	h.sumMs += ms
	if ms > h.maxMs {
		h.maxMs = ms
	}
	b := 0
	for b < latBuckets-1 && ms >= float64(int64(1)<<b) {
		b++
	}
	h.counts[b]++
}

// metrics aggregates the serving layer's operational counters. Simulator
// work (runs, events, packets) comes from the Results themselves, and jobs
// that requested observation additionally fold their observe.Summary link
// census in - the same internal/observe machinery that powers Result
// .Observed feeds the service totals.
type metrics struct {
	start time.Time

	rejected atomic.Int64 // refused by admission control (queue full)
	inFlight atomic.Int64 // currently executing on a worker
	hits     atomic.Int64 // result-cache hits; hits + misses is every admitted job
	misses   atomic.Int64 // result-cache misses: led or joined a simulation
	shared   atomic.Int64 // misses answered by a simulation another request led
	saved    atomic.Int64 // Result.Events of hits and shared answers: work not redone

	simRuns    atomic.Int64 // completed simulations
	simEvents  atomic.Int64 // logical simulator events across served jobs
	simPackets atomic.Int64 // packets injected across served jobs

	// Sharded-engine synchronization counters, folded from each job's
	// SyncStats out-parameter (all zero while every job runs unsharded).
	syncAdvances atomic.Int64 // windows processed
	syncWaits    atomic.Int64 // barrier crossings
	syncWaitNs   atomic.Int64 // network.SyncStats.BlockedWaitNs (waits past the barrier's spin phase)
	syncXEvents  atomic.Int64 // events shipped across shard boundaries
	syncXBytes   atomic.Int64 // bytes shipped across shard boundaries

	mu           sync.Mutex
	byStrategy   map[collective.Strategy]*latHist
	observedJobs int64
	bytesByVC    [network.NumVC]int64
	bytesByDim   [torus.NumDims]int64
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), byStrategy: make(map[collective.Strategy]*latHist)}
}

func (m *metrics) noteCacheHit(events int64) { m.hits.Add(1); m.saved.Add(events) }
func (m *metrics) noteCacheMiss()            { m.misses.Add(1) }
func (m *metrics) noteShared(events int64)   { m.shared.Add(1); m.saved.Add(events) }
func (m *metrics) noteRejected()             { m.rejected.Add(1) }
func (m *metrics) noteStart()                { m.inFlight.Add(1) }
func (m *metrics) noteDone()                 { m.inFlight.Add(-1) }

// noteSync folds one successful job's sharded-engine synchronization
// counters into the service totals.
func (m *metrics) noteSync(ss *network.SyncStats) {
	m.syncAdvances.Add(ss.HorizonAdvances)
	m.syncWaits.Add(ss.BlockedWaits)
	m.syncWaitNs.Add(ss.BlockedWaitNs)
	m.syncXEvents.Add(ss.CrossShardEvents)
	m.syncXBytes.Add(ss.CrossShardBytes)
}

// noteJob records one finished (or canceled-in-queue) job.
func (m *metrics) noteJob(strat collective.Strategy, d time.Duration, ok bool, res *collective.Result) {
	if ok && res != nil {
		m.simRuns.Add(1)
		m.simEvents.Add(res.Events)
		m.simPackets.Add(res.PacketsInjected)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.byStrategy[strat]
	if h == nil {
		h = &latHist{}
		m.byStrategy[strat] = h
	}
	h.note(d, ok)
	if ok && res != nil && res.Observed != nil {
		m.observedJobs++
		for v, b := range res.Observed.BytesByVC {
			m.bytesByVC[v] += b
		}
		for dim, b := range res.Observed.BytesByDim {
			m.bytesByDim[dim] += b
		}
	}
}

// avgJobSeconds estimates one job's wall time from the successful jobs of
// every strategy (1s until there is data); Retry-After estimation uses it.
func (m *metrics) avgJobSeconds() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sumMs float64
	var ok int64
	for _, h := range m.byStrategy {
		sumMs += h.sumMs
		ok += h.jobs - h.failed
	}
	if ok == 0 {
		return 1
	}
	return sumMs / float64(ok) / 1000
}

// stratMetrics is one strategy's row in the metrics body.
type stratMetrics struct {
	Strategy     string            `json:"strategy"`
	Jobs         int64             `json:"jobs"`
	Failed       int64             `json:"failed,omitempty"`
	MeanMs       float64           `json:"mean_ms"`
	MaxMs        float64           `json:"max_ms"`
	BucketsLeMs  [latBuckets]int64 `json:"le_ms_bounds"`
	BucketCounts [latBuckets]int64 `json:"le_ms_counts"`
}

// metricsBody is the GET /metrics document. Rates are computed over server
// uptime; histograms are per strategy in log2-millisecond buckets.
type metricsBody struct {
	SchemaVersion int     `json:"schema_version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	QueueCap      int     `json:"queue_cap"`
	QueueDepth    int     `json:"queue_depth"`
	InFlight      int64   `json:"in_flight"`

	JobsAccepted int64   `json:"jobs_accepted"`
	JobsRejected int64   `json:"jobs_rejected"`
	JobsPerSec   float64 `json:"jobs_per_sec"`

	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	CacheEntries int     `json:"cache_entries"`

	// What the cache was worth, in simulator events: saved is the work hits
	// and shared answers did not redo, and the cost hit rate is its share
	// of all the work requested, saved / (saved + sim_events).
	CacheEvictions   int64   `json:"cache_evictions"`
	CacheRefused     int64   `json:"cache_refused"`
	CacheShared      int64   `json:"cache_shared"`
	CacheEventsSaved int64   `json:"cache_events_saved"`
	CacheCostHitRate float64 `json:"cache_cost_hit_rate"`

	SimRuns         int64   `json:"sim_runs"`
	SimEvents       int64   `json:"sim_events"`
	SimPackets      int64   `json:"sim_packets"`
	SimEventsPerSec float64 `json:"sim_events_per_sec"`

	SyncAdvances int64 `json:"sync_horizon_advances"`
	SyncWaits    int64 `json:"sync_blocked_waits"`
	SyncWaitNs   int64 `json:"sync_blocked_wait_ns"`
	SyncXEvents  int64 `json:"sync_cross_shard_events"`
	SyncXBytes   int64 `json:"sync_cross_shard_bytes"`

	ObservedJobs int64                `json:"observed_jobs"`
	BytesByVC    [network.NumVC]int64 `json:"observed_bytes_by_vc"`
	BytesByDim   [torus.NumDims]int64 `json:"observed_bytes_by_dim"`
	Strategies   []stratMetrics       `json:"strategies"`
}

// body renders the metrics snapshot.
func (m *metrics) body(workers, queueCap, queueDepth, cacheEntries int, cacheEvictions, cacheRefused int64) metricsBody {
	up := time.Since(m.start).Seconds()
	hits, misses := m.hits.Load(), m.misses.Load()
	b := metricsBody{
		SchemaVersion: SchemaVersion,
		UptimeSeconds: up,
		Workers:       workers,
		QueueCap:      queueCap,
		QueueDepth:    queueDepth,
		InFlight:      m.inFlight.Load(),
		JobsAccepted:  hits + misses,
		JobsRejected:  m.rejected.Load(),
		CacheHits:     hits,
		CacheMisses:   misses,
		CacheEntries:  cacheEntries,
		SimRuns:       m.simRuns.Load(),
		SimEvents:     m.simEvents.Load(),
		SimPackets:    m.simPackets.Load(),
		SyncAdvances:  m.syncAdvances.Load(),
		SyncWaits:     m.syncWaits.Load(),
		SyncWaitNs:    m.syncWaitNs.Load(),
		SyncXEvents:   m.syncXEvents.Load(),
		SyncXBytes:    m.syncXBytes.Load(),

		CacheEvictions:   cacheEvictions,
		CacheRefused:     cacheRefused,
		CacheShared:      m.shared.Load(),
		CacheEventsSaved: m.saved.Load(),
	}
	if hits+misses > 0 {
		b.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	if work := b.CacheEventsSaved + b.SimEvents; work > 0 {
		b.CacheCostHitRate = float64(b.CacheEventsSaved) / float64(work)
	}
	if up > 0 {
		b.JobsPerSec = float64(b.JobsAccepted) / up
		b.SimEventsPerSec = float64(b.SimEvents) / up
	}
	m.mu.Lock()
	b.ObservedJobs = m.observedJobs
	b.BytesByVC = m.bytesByVC
	b.BytesByDim = m.bytesByDim
	for strat, h := range m.byStrategy {
		row := stratMetrics{
			Strategy:     string(strat),
			Jobs:         h.jobs,
			Failed:       h.failed,
			MaxMs:        h.maxMs,
			BucketCounts: h.counts,
		}
		for i := 0; i < latBuckets; i++ {
			row.BucketsLeMs[i] = int64(1) << i
		}
		if ok := h.jobs - h.failed; ok > 0 {
			row.MeanMs = h.sumMs / float64(ok)
		}
		b.Strategies = append(b.Strategies, row)
	}
	m.mu.Unlock()
	sort.Slice(b.Strategies, func(i, j int) bool { return b.Strategies[i].Strategy < b.Strategies[j].Strategy })
	return b
}
