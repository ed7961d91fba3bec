package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"alltoall/internal/collective"
	"alltoall/internal/network"
	"alltoall/internal/observe"
	"alltoall/internal/parallel"
)

// Metrics accumulates simulator work across the (possibly concurrent) runs
// of one or more experiments: completed collective runs, simulator events
// processed, packets injected, and the sharded engine's synchronization
// counters (windows, barrier crossings, cross-shard traffic). All
// methods are safe for concurrent use; a nil *Metrics discards everything.
type Metrics struct {
	runs    atomic.Int64
	events  atomic.Int64
	queued  atomic.Int64
	packets atomic.Int64

	syncAdvances atomic.Int64
	syncWaits    atomic.Int64
	syncWaitNs   atomic.Int64
	syncXEvents  atomic.Int64
	syncXBytes   atomic.Int64
}

func (m *Metrics) note(r collective.Result) {
	if m == nil {
		return
	}
	m.runs.Add(1)
	m.events.Add(r.Events)
	m.queued.Add(r.QueuedEvents)
	m.packets.Add(r.PacketsInjected)
}

// noteSync folds one run's synchronization counters into the totals. These
// ride outside the Result (they depend on the shard count, which the
// byte-identity contract excludes), so runCached collects them through the
// Options.SyncStats out-parameter.
func (m *Metrics) noteSync(ss *network.SyncStats) {
	if m == nil {
		return
	}
	m.syncAdvances.Add(ss.HorizonAdvances)
	m.syncWaits.Add(ss.BlockedWaits)
	m.syncWaitNs.Add(ss.BlockedWaitNs)
	m.syncXEvents.Add(ss.CrossShardEvents)
	m.syncXBytes.Add(ss.CrossShardBytes)
}

// Runs returns the number of completed collective runs.
func (m *Metrics) Runs() int64 {
	if m == nil {
		return 0
	}
	return m.runs.Load()
}

// Events returns the total simulator events processed.
func (m *Metrics) Events() int64 {
	if m == nil {
		return 0
	}
	return m.events.Load()
}

// QueuedEvents returns the total events popped from the pending-event
// queues (equal to Events: every event is queued exactly once).
func (m *Metrics) QueuedEvents() int64 {
	if m == nil {
		return 0
	}
	return m.queued.Load()
}

// Packets returns the total packets injected.
func (m *Metrics) Packets() int64 {
	if m == nil {
		return 0
	}
	return m.packets.Load()
}

// EventsPerPacket returns the queued-event volume per injected packet.
func (m *Metrics) EventsPerPacket() float64 {
	if m == nil || m.packets.Load() == 0 {
		return 0
	}
	return float64(m.queued.Load()) / float64(m.packets.Load())
}

// SyncAdvances returns the total windows processed across sharded runs,
// summed over shards.
func (m *Metrics) SyncAdvances() int64 {
	if m == nil {
		return 0
	}
	return m.syncAdvances.Load()
}

// SyncWaits returns the total barrier crossings across sharded runs.
func (m *Metrics) SyncWaits() int64 {
	if m == nil {
		return 0
	}
	return m.syncWaits.Load()
}

// SyncWaitNs returns network.SyncStats.BlockedWaitNs summed over runs: wall
// time of the barrier waits that outlasted the spin phase.
func (m *Metrics) SyncWaitNs() int64 {
	if m == nil {
		return 0
	}
	return m.syncWaitNs.Load()
}

// CrossShardEvents returns the total events that crossed a shard boundary.
func (m *Metrics) CrossShardEvents() int64 {
	if m == nil {
		return 0
	}
	return m.syncXEvents.Load()
}

// CrossShardBytes returns the total bytes shipped across shard boundaries.
func (m *Metrics) CrossShardBytes() int64 {
	if m == nil {
		return 0
	}
	return m.syncXBytes.Load()
}

// progressMu serializes per-row progress lines from concurrent workers so
// they never interleave mid-line, even across experiments.
var progressMu sync.Mutex

// rowProgress emits one progress line to cfg.Progress, if set.
func (c Config) rowProgress(format string, args ...any) {
	if c.Progress == nil {
		return
	}
	progressMu.Lock()
	defer progressMu.Unlock()
	fmt.Fprintf(c.Progress, format+"\n", args...)
}

// runCached executes one collective run through a worker-local network
// cache, recording metrics (and, when tracing, the run's observation) on
// success. opts is the run's Request (from Config.opts) plus, for the
// ablations, a Par override; the machinery is attached here.
func (c Config) runCached(strat collective.Strategy, opts collective.Options, cache *collective.NetCache) (collective.Result, error) {
	opts.Cache = cache
	var obs *observe.Collector
	if c.Trace != nil {
		obs = observe.New(observe.Config{})
		opts.Observer = obs
	}
	var ss network.SyncStats
	opts.SyncStats = &ss
	res, err := collective.RunContext(context.Background(), strat, opts)
	if err != nil {
		return res, err
	}
	c.Metrics.note(res)
	c.Metrics.noteSync(&ss)
	if c.Trace != nil {
		if err := c.Trace.note(c.TracePrefix, strat, &opts, obs); err != nil {
			return res, err
		}
	}
	return res, nil
}

// mapRows fans an experiment's independent rows (or sweep points) across
// the config's worker pool. Each worker gets a private network cache so
// consecutive rows on one shape reuse simulator allocations; results come
// back in row order regardless of scheduling, so rendered tables are
// identical at any worker count. The Config handed to fn carries the
// fan-out size, letting opts trade run-level against intra-run parallelism
// (see Config.shardsFor); callbacks shadow the outer cfg with it.
func mapRows[T, R any](cfg Config, items []T, fn func(cfg Config, cache *collective.NetCache, i int, item T) (R, error)) ([]R, error) {
	cfg.batch = len(items)
	return parallel.MapLocal(context.Background(), cfg.Workers, items,
		func() *collective.NetCache { return &collective.NetCache{} },
		func(_ context.Context, cache *collective.NetCache, i int, item T) (R, error) {
			return fn(cfg, cache, i, item)
		})
}
