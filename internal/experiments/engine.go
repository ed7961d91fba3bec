package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"alltoall/internal/collective"
	"alltoall/internal/model"
	"alltoall/internal/network"
	"alltoall/internal/observe"
	"alltoall/internal/parallel"
	"alltoall/internal/torus"
)

// Metrics accumulates simulator work across the (possibly concurrent) runs
// of one or more experiments: completed simulations, simulator events
// processed and packets injected. A cell that shares another cell's
// simulation adds nothing. All methods are safe for concurrent use; a nil
// *Metrics discards everything.
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

// Runs returns the number of completed simulations.
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
// node budget, the large-message size for that partition, and whether the
// run is another cell's).
type cell struct {
	strat collective.Strategy
	paper torus.Shape // the paper's partition
	msg   int         // per-pair payload bytes; 0 = the config's large-message size for the run shape
	// tune, when set, adjusts the run's options after runGrid has filled
	// them in (o.Shape is the partition actually simulated). A tune that
	// sets MaxTime asks to be cut off there: overrunning it is an outcome
	// (collapsed), not a failure. A tuned cell always simulates itself.
	tune func(o *collective.Options) error
}

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

// options is the run the cell asks for, before its tune.
func (c Config) options(o outcome) collective.Options {
	return collective.Options{Request: collective.Request{
		Strategy: o.strat, Shape: o.run, MsgBytes: o.msg, Seed: c.Seed, Shards: c.Shards,
		Check: c.Check}}
}

// progressMu serializes progress lines from concurrent workers so they
// never interleave mid-line, even across experiments.
var progressMu sync.Mutex

// runGrid executes an experiment's grid and returns the outcomes in cell
// order. Each distinct simulation is one work item of the config's worker
// pool, each worker with a private network cache, heaviest first (see
// plan); results do not depend on scheduling, so rendered tables are
// identical at any worker count. A cell that shares another's simulation
// gets that run's Result retargeted to its own message size. A failing
// simulation fails the grid with an error naming the experiment and the
// cell, and cancels the worker context the cells still running use; every
// cell prints one progress line, a shared one naming the simulation it used.
// When the config traces, the observations reach the sink here, after the
// grid, in cell order: the observed rows line up with the table's own.
func runGrid(cfg Config, id string, cells []cell) ([]outcome, error) {
	outs := make([]outcome, len(cells))
	for i, c := range cells {
		outs[i] = outcome{cell: c, run: cfg.scale(c.paper)}
		if outs[i].msg == 0 {
			outs[i].msg = cfg.largeFor(outs[i].run)
		}
	}
	sims, shared := cfg.plan(outs)
	finished := 0 // guarded by progressMu
	_, err := parallel.MapLocal(context.Background(), cfg.Workers, sims,
		func() *collective.NetCache { return &collective.NetCache{} },
		func(ctx context.Context, cache *collective.NetCache, _ int, i int) (struct{}, error) {
			start := time.Now()
			lead := &outs[i]
			if err := cfg.runCell(ctx, lead, cache); err != nil {
				return struct{}{}, fmt.Errorf("%s: %v: %w", id, lead, err)
			}
			took := time.Since(start).Round(time.Millisecond).String()
			for _, j := range shared[i] {
				outs[j].res = cfg.options(*lead).Retarget(lead.res, outs[j].msg)
			}
			if cfg.Progress != nil {
				progressMu.Lock()
				for _, j := range append([]int{i}, shared[i]...) {
					o, status, how := outs[j], "collapsed", took
					if !o.collapsed {
						status = fmt.Sprintf("%.1f%% of peak, %.1f MB/s, %.3f ms", o.res.PercentPeak, o.res.PerNodeMBs, o.res.Seconds*1e3)
					}
					if j != i {
						how = fmt.Sprintf("shares %v", lead)
					}
					finished++
					fmt.Fprintf(cfg.Progress, "  %s %d/%d %v: %s (%s)\n", id, finished, len(outs), o, status, how)
				}
				progressMu.Unlock()
			}
			return struct{}{}, nil
		})
	if err != nil {
		return nil, err
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

// plan picks the grid's work: sims lists the cells that simulate, and
// shared[i] the cells that read simulation i's Result instead of running
// their own. Untuned cells on one strategy and run shape whose traffic is
// the same (collective.Options.SameTraffic; an identical run is the case of
// equal sizes) share the run of the group's smallest message size, whose
// default MaxTime is the group's smallest. Tuned cells, and every cell of a
// traced grid (each needs its own observation), simulate themselves. The
// sims go heaviest first by an estimate that needs no run, P² × packets per
// message, ties in cell order, so the longest runs start before the pool
// fills with short ones.
func (c Config) plan(outs []outcome) (sims []int, shared map[int][]int) {
	bySize := make([]int, len(outs))
	for i := range bySize {
		bySize[i] = i
	}
	sort.SliceStable(bySize, func(a, b int) bool { return outs[bySize[a]].msg < outs[bySize[b]].msg })
	type run struct {
		strat collective.Strategy
		shape torus.Shape
	}
	lead := make(map[run]int) // each run's latest simulation, the smallest size of its traffic
	shared = make(map[int][]int)
	for _, i := range bySize {
		o := outs[i]
		k := run{o.strat, o.run}
		if o.tune == nil && c.Trace == nil {
			if l, ok := lead[k]; ok && c.options(outs[l]).SameTraffic(o.msg) {
				shared[l] = append(shared[l], i)
				continue
			}
			lead[k] = i
		}
		sims = append(sims, i)
	}
	header := model.DefaultCalib().HeaderBytes
	weight := func(i int) int {
		p := outs[i].run.P()
		return p * p * collective.NewMsg(outs[i].msg, header).NPkts
	}
	sort.Slice(sims, func(a, b int) bool {
		if wa, wb := weight(sims[a]), weight(sims[b]); wa != wb {
			return wa > wb
		}
		return sims[a] < sims[b]
	})
	return sims, shared
}

// runCell simulates o's cell under ctx through the worker's network cache,
// filling in its result and recording metrics on success.
func (c Config) runCell(ctx context.Context, o *outcome, cache *collective.NetCache) error {
	opts := c.options(*o)
	if o.tune != nil {
		if err := o.tune(&opts); err != nil {
			return err
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
	return err
}
