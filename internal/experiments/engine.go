package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"alltoall/internal/collective"
	"alltoall/internal/network"
	"alltoall/internal/observe"
	"alltoall/internal/parallel"
	"alltoall/internal/torus"
)

// Metrics accumulates simulator work across the (possibly concurrent) runs
// of one or more experiments: completed collective runs, simulator events
// processed and packets injected. All methods are safe for concurrent use;
// a nil *Metrics discards everything.
type Metrics struct {
	runs    atomic.Int64
	events  atomic.Int64
	packets atomic.Int64
}

func (m *Metrics) note(r collective.Result) {
	if m == nil {
		return
	}
	m.runs.Add(1)
	m.events.Add(r.Events)
	m.packets.Add(r.PacketsInjected)
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
// queues, which is Events: every event is queued exactly once.
func (m *Metrics) QueuedEvents() int64 { return m.Events() }

// Packets returns the total packets injected.
func (m *Metrics) Packets() int64 {
	if m == nil {
		return 0
	}
	return m.packets.Load()
}

// EventsPerPacket returns the event volume per injected packet.
func (m *Metrics) EventsPerPacket() float64 {
	if m.Packets() == 0 {
		return 0
	}
	return float64(m.Events()) / float64(m.Packets())
}

// cell is one simulation of an experiment, as data: what the paper ran.
// runGrid decides what is actually simulated (the partition scaled to the
// node budget, the large-message size for that partition).
type cell struct {
	strat collective.Strategy
	paper torus.Shape // the paper's partition
	msg   int         // per-pair payload bytes; 0 = the config's large-message size for the run shape
	// tune, when set, adjusts the run's options after runGrid has filled
	// them in (o.Shape is the partition actually simulated). A tune that
	// sets MaxTime asks to be cut off there: overrunning it is an outcome
	// (collapsed), not a failure.
	tune func(o *collective.Options) error
}

// row is the fan-out unit of a grid: its cells run in order on one worker
// and share that worker's NetCache, so runs on one shape reuse the network.
type row []cell

// outcome is a finished cell: its identity with msg resolved, the partition
// simulated, the result (zero when collapsed), and the run's observation
// when the config traces.
type outcome struct {
	cell
	run       torus.Shape
	res       collective.Result
	collapsed bool
	obs       *observe.Collector
}

// label renders the partition as the paper names it, with the simulated
// size alongside when scaling changed it.
func (o outcome) label() string {
	if o.run == o.paper {
		return o.paper.String()
	}
	return fmt.Sprintf("%v (run %v)", o.paper, o.run)
}

// String identifies the cell in progress lines and errors.
func (o outcome) String() string {
	return fmt.Sprintf("%s %s m=%d", o.strat, o.label(), o.msg)
}

// progressMu serializes progress lines from concurrent workers so they
// never interleave mid-line, even across experiments.
var progressMu sync.Mutex

// runGrid executes every cell of an experiment's grid and returns the
// outcomes in cell order (rows concatenated). Rows fan out over the
// config's worker pool, each worker with a private network cache; results
// do not depend on scheduling, so rendered tables are identical at any
// worker count. A failing cell fails the grid with an error naming the
// experiment and the cell, and cancels the worker context the cells still
// running use; every finished cell prints one progress line.
// When the config traces, the observations reach the sink here, after the
// grid, in cell order: the observed rows line up with the table's own.
func runGrid(cfg Config, id string, rows []row) ([]outcome, error) {
	total, finished := 0, 0 // cells; finished is guarded by progressMu
	for _, r := range rows {
		total += len(r)
	}
	perRow, err := parallel.MapLocal(context.Background(), cfg.Workers, rows,
		func() *collective.NetCache { return &collective.NetCache{} },
		func(ctx context.Context, cache *collective.NetCache, _ int, r row) ([]outcome, error) {
			outs := make([]outcome, len(r))
			for j, c := range r {
				start := time.Now()
				o, err := cfg.runCell(ctx, c, cache)
				if err != nil {
					return nil, fmt.Errorf("%s: %v: %w", id, o, err)
				}
				if cfg.Progress != nil {
					status := "collapsed"
					if !o.collapsed {
						status = fmt.Sprintf("%.1f%% of peak, %.1f MB/s, %.3f ms", o.res.PercentPeak, o.res.PerNodeMBs, o.res.Seconds*1e3)
					}
					progressMu.Lock()
					finished++
					fmt.Fprintf(cfg.Progress, "  %s %d/%d %v: %s (%s)\n", id, finished, total, o,
						status, time.Since(start).Round(time.Millisecond))
					progressMu.Unlock()
				}
				outs[j] = o
			}
			return outs, nil
		})
	if err != nil {
		return nil, err
	}
	outs := make([]outcome, 0, total)
	for _, r := range perRow {
		outs = append(outs, r...)
	}
	for _, o := range outs {
		if o.obs != nil {
			if err := cfg.Trace.note(id+" "+o.String(), o.obs); err != nil {
				return nil, err
			}
		}
	}
	return outs, nil
}

// runCell simulates one cell of a grid under ctx through the worker's network
// cache, recording metrics on success. The outcome identifies the cell even
// when the run fails.
func (c Config) runCell(ctx context.Context, cl cell, cache *collective.NetCache) (outcome, error) {
	o := outcome{cell: cl, run: c.scale(cl.paper)}
	if o.msg == 0 {
		o.msg = c.largeFor(o.run)
	}
	opts := collective.Options{Request: collective.Request{
		Strategy: cl.strat, Shape: o.run, MsgBytes: o.msg, Seed: c.Seed, Shards: c.Shards,
		Check: c.Check}}
	if cl.tune != nil {
		if err := cl.tune(&opts); err != nil {
			return o, err
		}
	}
	opts.Cache = cache
	if c.Trace != nil {
		o.obs = observe.New(observe.Config{})
		opts.Observer = o.obs
	}
	var err error
	o.res, err = collective.Run(ctx, opts)
	switch {
	case err == nil:
		c.Metrics.note(o.res)
	case opts.MaxTime > 0 && errors.Is(err, network.ErrMaxTime):
		o.collapsed, o.obs, err = true, nil, nil
	}
	return o, err
}
