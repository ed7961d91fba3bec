// Package experiments regenerates every table and figure of the paper's
// evaluation: workload setup, parameter sweeps, baselines, and rendering of
// the same rows/series the paper reports, with the paper's published
// numbers alongside for comparison.
//
// The default configuration scales partitions above MaxNodes down by
// halving every dimension (preserving the aspect ratio that drives the
// paper's phenomena); Full disables scaling and simulates the true machine
// sizes, which takes hours for the largest rows.
//
// Rows of each experiment are independent simulations, so they run on a
// worker pool (Config.Workers); every run is seeded independently of
// scheduling, making output identical at any worker count.
package experiments

import (
	"fmt"
	"io"
	"time"

	"alltoall/internal/collective"
	"alltoall/internal/model"
	"alltoall/internal/parallel"
	"alltoall/internal/report"
	"alltoall/internal/torus"
)

// Config controls experiment scale and reproducibility.
type Config struct {
	// Full disables partition scaling and runs the paper's true machine
	// sizes.
	Full bool
	// MaxNodes bounds simulated partition size when !Full (default 1024).
	MaxNodes int
	// Seed randomizes destination orders.
	Seed uint64
	// LargeBytes overrides the per-pair payload used for "large message"
	// rows (default: chosen per partition size to bound runtime).
	LargeBytes int

	// Workers bounds experiment concurrency: independent rows and sweep
	// points fan out over this many goroutines (0 = GOMAXPROCS, 1 =
	// serial). Tables are byte-identical at any setting.
	Workers int
	// Shards selects the intra-run engine: > 1 forces the window-parallel
	// sharded engine with that many workers per simulation, 1 forces the
	// serial engine, and 0 (default) picks automatically - sharding only
	// when a batch of runs is too small to fill the worker pool and the
	// partition is large enough to amortize the window barriers. Tables
	// are byte-identical at any setting.
	Shards int
	// Progress, when non-nil, receives one line per completed row
	// (typically os.Stderr, so tables on stdout stay clean).
	Progress io.Writer
	// Metrics, when non-nil, accumulates run/event/packet counts across
	// every collective run of the experiment.
	Metrics *Metrics

	// Check enables the simulator's runtime invariant checker for every
	// run of the experiment (collective.Request.Check). Costs roughly
	// 1.4x simulation time; tables are unchanged when the invariants hold.
	Check bool

	// Faults, when non-empty, applies the same deterministic link-fault
	// schedule (the ParseFaults "t:node:dir:action" grammar) to every run
	// of the experiment. Node ids refer to the scaled partition actually
	// simulated, so schedules are only portable across runs of one shape.
	Faults string

	// Trace, when non-nil, instruments every collective run with an
	// observe.Collector and records its per-run summary (and, if the sink
	// keeps traces, its windowed JSONL trace) under TracePrefix. Tables
	// are unchanged: observation never perturbs a simulation.
	Trace *TraceSink
	// TracePrefix labels this experiment's runs in the sink (usually the
	// experiment id).
	TracePrefix string

	// batch is the size of the current mapRows fan-out, stamped into the
	// Config each row callback receives so opts can weigh run-level
	// against intra-run parallelism.
	batch int
}

func (c Config) maxNodes() int {
	if c.Full {
		return 1 << 30
	}
	if c.MaxNodes == 0 {
		return 1024
	}
	return c.MaxNodes
}

// largeFor picks the "large message" payload for a partition: large enough
// to reach the asymptotic regime, small enough to keep the event count (and
// wall-clock) bounded.
func (c Config) largeFor(s torus.Shape) int {
	if c.LargeBytes > 0 {
		return c.LargeBytes
	}
	switch p := s.P(); {
	case p <= 256:
		return 1920
	case p <= 512:
		return 960
	case p <= 1024:
		return 480
	default:
		return 240
	}
}

// scale halves every even dimension of s until it fits maxNodes, keeping
// the wrap flags. It reports whether scaling occurred.
func (c Config) scale(s torus.Shape) (torus.Shape, bool) {
	maxN := c.maxNodes()
	scaled := false
	for s.P() > maxN {
		t := s
		for d := 0; d < torus.NumDims; d++ {
			if t.Size[d] >= 4 && t.Size[d]%2 == 0 {
				t.Size[d] /= 2
				if t.Size[d] <= 2 {
					t.Wrap[d] = false
				}
			}
		}
		if t == s {
			break // cannot shrink further
		}
		s = t
		scaled = true
	}
	return s, scaled
}

// Runner regenerates one experiment.
type Runner func(Config) (*report.Table, error)

// Catalog maps experiment ids (table1..table4, fig1..fig7) to runners, with
// Order giving presentation order.
var (
	Catalog = map[string]Runner{
		"table1":  Table1,
		"table2":  Table2,
		"table3":  Table3,
		"table4":  Table4,
		"fig1":    Fig1,
		"fig2":    Fig2,
		"fig3":    Fig3,
		"fig4":    Fig4,
		"fig5":    Fig5,
		"fig6":    Fig6,
		"fig7":    Fig7,
		"ablate":  Ablate,
		"degrade": Degrade,
	}
	Order = []string{
		"table1", "table2", "table3", "table4",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"ablate", "degrade",
	}
)

// Names returns the catalog keys in presentation order.
func Names() []string {
	return append([]string(nil), Order...)
}

func (c Config) opts(s torus.Shape, m int) collective.Options {
	return collective.Options{Request: collective.Request{
		Shape: s, MsgBytes: m, Seed: c.Seed, Shards: c.shardsFor(s.P()), Check: c.Check, Faults: c.Faults}}
}

// shardsFor picks the per-run shard count for a partition of the given node
// count. Run-level parallelism is strictly cheaper (no window barriers), so
// the sharded engine is only auto-selected when the current batch of
// independent runs leaves workers idle, and only on partitions big enough
// that each shard still owns a few dozen routers. Results are identical
// either way; this is purely a scheduling decision.
func (c Config) shardsFor(nodes int) int {
	if c.Shards != 0 {
		return c.Shards
	}
	w := parallel.Workers(c.Workers)
	batch := c.batch
	if batch < 1 {
		batch = 1
	}
	if batch >= w || nodes < 512 {
		return 1
	}
	s := w / batch
	if s > 8 {
		s = 8
	}
	return s
}

func shapeLabel(paper torus.Shape, run torus.Shape, scaled bool) string {
	if !scaled {
		return paper.String()
	}
	return fmt.Sprintf("%v (run %v)", paper, run)
}

// runRow simulates one strategy on a (possibly scaled) partition at the
// config's large-message size, through the worker's network cache.
func (c Config) runRow(cache *collective.NetCache, strat collective.Strategy, paper torus.Shape) (collective.Result, string, error) {
	run, scaled := c.scale(paper)
	res, err := c.runCached(strat, c.opts(run, c.largeFor(run)), cache)
	return res, shapeLabel(paper, run, scaled), err
}

// rowResult pairs a rendered partition label with its run.
type rowResult struct {
	label string
	res   collective.Result
}

// stratRows runs one strategy across a table's partitions on the worker
// pool, one row per partition, emitting a progress line per finished row.
func (c Config) stratRows(name string, strat collective.Strategy, shapes []torus.Shape) ([]rowResult, error) {
	n := len(shapes)
	return mapRows(c, shapes, func(c Config, cache *collective.NetCache, i int, paper torus.Shape) (rowResult, error) {
		start := time.Now()
		res, label, err := c.runRow(cache, strat, paper)
		if err != nil {
			return rowResult{}, err
		}
		c.rowProgress("  %s %d/%d %s: %s %.1f%% of peak (%s)",
			name, i+1, n, label, strat, res.PercentPeak, time.Since(start).Round(time.Millisecond))
		return rowResult{label: label, res: res}, nil
	})
}

// Table1 reproduces "All-to-all peak performance of various symmetric
// partitions for large messages" (AR strategy).
func Table1(cfg Config) (*report.Table, error) {
	rows := []struct {
		shape torus.Shape
		paper float64
	}{
		{torus.New(8, 1, 1), 98.2},
		{torus.New(16, 1, 1), 97.7},
		{torus.New(8, 8, 1), 98.7},
		{torus.New(16, 16, 1), 99.7},
		{torus.New(8, 8, 8), 99.0},
		{torus.New(16, 16, 16), 99.0},
	}
	shapes := make([]torus.Shape, len(rows))
	for i, r := range rows {
		shapes[i] = r.shape
	}
	t := report.NewTable("Table 1: AR percent of peak on symmetric partitions (large messages)",
		"Partition", "Paper %", "Measured %", "MsgBytes")
	out, err := cfg.stratRows("table1", collective.StratAR, shapes)
	if err != nil {
		return t, err
	}
	for i, r := range rows {
		t.AddRow(out[i].label, r.paper, out[i].res.PercentPeak, out[i].res.MsgBytes)
	}
	t.AddNote("measured on the packet-level simulator; expect a uniform few-percent tax versus hardware")
	return t, nil
}

// table2Rows are the asymmetric partitions of Table 2 ("M" = mesh
// dimension) with the paper's AR percent of peak.
func table2Rows() []struct {
	shape torus.Shape
	paper float64
} {
	return []struct {
		shape torus.Shape
		paper float64
	}{
		{torus.NewMesh(8, 2, 1, true, false, false), 91.8},
		{torus.NewMesh(8, 4, 1, true, false, false), 89.0},
		{torus.New(8, 16, 1), 85.7},
		{torus.New(8, 32, 1), 84.0},
		{torus.NewMesh(8, 8, 2, true, true, false), 90.1},
		{torus.NewMesh(8, 8, 4, true, true, false), 87.7},
		{torus.New(8, 8, 16), 81.0},
		{torus.New(8, 16, 16), 87.0},
		{torus.New(8, 32, 16), 73.3},
		{torus.New(16, 32, 16), 71.0},
		{torus.New(32, 32, 16), 73.6},
	}
}

// Table2 reproduces "AA performance using the AR strategy for large message
// sizes on various processor partitions".
func Table2(cfg Config) (*report.Table, error) {
	rows := table2Rows()
	shapes := make([]torus.Shape, len(rows))
	for i, r := range rows {
		shapes[i] = r.shape
	}
	t := report.NewTable("Table 2: AR percent of peak on asymmetric partitions (large messages)",
		"Partition", "Paper %", "Measured %", "MsgBytes")
	out, err := cfg.stratRows("table2", collective.StratAR, shapes)
	if err != nil {
		return t, err
	}
	for i, r := range rows {
		t.AddRow(out[i].label, r.paper, out[i].res.PercentPeak, out[i].res.MsgBytes)
	}
	return t, nil
}

// Table3 reproduces "All-to-all performance using the Two Phase Schedule
// (TPS) algorithm for long messages", including the phase-1 dimension.
func Table3(cfg Config) (*report.Table, error) {
	rows := []struct {
		shape torus.Shape
		paper float64
		dim   string
	}{
		{torus.New(8, 8, 8), 77.2, "Z"},
		{torus.New(16, 8, 8), 99.0, "X"},
		{torus.New(8, 16, 8), 98.9, "Y"},
		{torus.New(8, 8, 16), 97.9, "Z"},
		{torus.New(16, 16, 8), 97.5, "Z"},
		{torus.New(16, 8, 16), 97.4, "Y"},
		{torus.New(8, 16, 16), 97.2, "X"},
		{torus.New(8, 32, 16), 99.5, "Y"},
		{torus.New(16, 16, 16), 96.1, "X"},
		{torus.New(16, 32, 16), 99.8, "Y"},
		{torus.New(32, 16, 16), 99.8, "X"},
		{torus.New(32, 32, 16), 96.8, "Z"},
		{torus.New(40, 32, 16), 99.5, "X"},
	}
	shapes := make([]torus.Shape, len(rows))
	for i, r := range rows {
		shapes[i] = r.shape
	}
	t := report.NewTable("Table 3: Two Phase Schedule percent of peak (long messages)",
		"Partition", "Paper %", "Measured %", "Paper dim", "Chosen dim")
	out, err := cfg.stratRows("table3", collective.StratTPS, shapes)
	if err != nil {
		return t, err
	}
	for i, r := range rows {
		t.AddRow(out[i].label, r.paper, out[i].res.PercentPeak, r.dim, out[i].res.TPSLinearDim.String())
	}
	t.AddNote("on fully symmetric shapes any linear dimension is equivalent; the paper picked Z for 8x8x8, this implementation picks X")
	return t, nil
}

// Table4 reproduces the 1-byte all-to-all latency comparison between TPS
// and AR. Latencies are reported in calibrated milliseconds; scaled
// partitions are proportionally faster, so the comparison column is the
// TPS/AR ratio. Both runs of a row share the worker's cached network.
func Table4(cfg Config) (*report.Table, error) {
	rows := []struct {
		shape             torus.Shape
		paperTPS, paperAR float64
	}{
		{torus.New(8, 8, 8), 0.81, 0.52},
		{torus.New(8, 8, 16), 1.64, 1.25},
		{torus.New(16, 16, 16), 7.5, 4.7},
		{torus.New(8, 32, 16), 8.1, 12.4},
		{torus.New(32, 32, 16), 35.9, 65.2},
	}
	type t4out struct {
		label   string
		tps, ar collective.Result
	}
	t := report.NewTable("Table 4: 1-byte all-to-all latency, TPS vs AR (ms)",
		"Partition", "Paper TPS", "Paper AR", "Meas TPS", "Meas AR", "Paper ratio", "Meas ratio")
	out, err := mapRows(cfg, rows, func(cfg Config, cache *collective.NetCache, i int, r struct {
		shape             torus.Shape
		paperTPS, paperAR float64
	}) (t4out, error) {
		start := time.Now()
		run, scaled := cfg.scale(r.shape)
		tps, err := cfg.runCached(collective.StratTPS, cfg.opts(run, 1), cache)
		if err != nil {
			return t4out{}, err
		}
		ar, err := cfg.runCached(collective.StratAR, cfg.opts(run, 1), cache)
		if err != nil {
			return t4out{}, err
		}
		label := shapeLabel(r.shape, run, scaled)
		cfg.rowProgress("  table4 %d/%d %s: TPS %.3fms AR %.3fms (%s)",
			i+1, len(rows), label, tps.Seconds*1e3, ar.Seconds*1e3, time.Since(start).Round(time.Millisecond))
		return t4out{label: label, tps: tps, ar: ar}, nil
	})
	if err != nil {
		return t, err
	}
	for i, r := range rows {
		t.AddRow(out[i].label,
			r.paperTPS, r.paperAR,
			fmt.Sprintf("%.3f", out[i].tps.Seconds*1e3), fmt.Sprintf("%.3f", out[i].ar.Seconds*1e3),
			fmt.Sprintf("%.2f", r.paperTPS/r.paperAR),
			fmt.Sprintf("%.2f", out[i].tps.Seconds/out[i].ar.Seconds))
	}
	t.AddNote("the sign flip matters: TPS is slower than AR on small partitions and faster on large asymmetric ones")
	return t, nil
}

// figSweep renders a message-size sweep of per-node throughput (MB/s) for
// one or more strategies, with optional model columns. The (strategy, size)
// grid is flattened into one job list so the pool stays busy even when one
// strategy's points dominate the runtime.
func figSweep(cfg Config, title string, paper torus.Shape, strats []collective.Strategy,
	sizes []int, withModel bool, vmeshCols, vmeshRows int, vmeshOrder string) (*report.Table, error) {
	run, scaled := cfg.scale(paper)
	calib := model.DefaultCalib()
	cols := []string{"MsgBytes"}
	for _, s := range strats {
		cols = append(cols, string(s)+" MB/s", string(s)+" %peak")
	}
	if withModel {
		cols = append(cols, "Eq3 MB/s", "Peak MB/s")
	}
	t := report.NewTable(title, cols...)
	if scaled {
		t.AddNote("partition scaled from %v to %v (node budget); aspect ratio preserved", paper, run)
	}
	stratOpts := make([]collective.Options, len(strats))
	for i, s := range strats {
		opts := cfg.opts(run, 1)
		if s == collective.StratVMesh && vmeshCols > 0 {
			vc, vr := vmeshCols, vmeshRows
			if scaled {
				vc, vr = collective.BalancedFactor(run.P())
			}
			opts.VMeshCols, opts.VMeshRows = vc, vr
			opts.VMeshMapOrder = vmeshOrder
		}
		stratOpts[i] = opts
	}
	type job struct{ si, mi int }
	jobs := make([]job, 0, len(strats)*len(sizes))
	for si := range strats {
		for mi := range sizes {
			jobs = append(jobs, job{si, mi})
		}
	}
	flat, err := mapRows(cfg, jobs, func(cfg Config, cache *collective.NetCache, _ int, j job) (collective.Result, error) {
		start := time.Now()
		opts := stratOpts[j.si]
		opts.MsgBytes = sizes[j.mi]
		// stratOpts was built before the fan-out size was known; redo the
		// engine choice with the actual batch.
		opts.Shards = cfg.shardsFor(run.P())
		res, err := cfg.runCached(strats[j.si], opts, cache)
		if err != nil {
			return res, fmt.Errorf("sweep: %s at m=%d: %w", strats[j.si], sizes[j.mi], err)
		}
		cfg.rowProgress("  %s m=%d: %.1f MB/s (%s)",
			strats[j.si], sizes[j.mi], res.PerNodeMBs, time.Since(start).Round(time.Millisecond))
		return res, nil
	})
	if err != nil {
		return t, err
	}
	series := make([][]collective.Result, len(strats))
	for i := range series {
		series[i] = flat[i*len(sizes) : (i+1)*len(sizes)]
	}
	for j, m := range sizes {
		row := []any{m}
		for i := range strats {
			r := series[i][j]
			row = append(row, r.PerNodeMBs, r.PercentPeak)
		}
		if withModel {
			eq3 := model.DirectTime(calib, run, m)
			row = append(row,
				model.PerNodeBandwidth(calib, run, m, eq3),
				model.PeakPerNodeBandwidth(calib, run))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// messageSizes returns a doubling ladder of message sizes in [lo, hi],
// always including both endpoints.
func messageSizes(lo, hi int) []int {
	if lo < 1 {
		lo = 1
	}
	var out []int
	for m := lo; m < hi; m *= 2 {
		out = append(out, m)
	}
	if len(out) == 0 || out[len(out)-1] != hi {
		return append(out, hi)
	}
	return out
}

// Fig1 reproduces the AR throughput-vs-message-size curve with the model
// prediction on the 512-node midplane.
func Fig1(cfg Config) (*report.Table, error) {
	return figSweep(cfg, "Figure 1: AR measured vs model on 8x8x8",
		torus.New(8, 8, 8), []collective.Strategy{collective.StratAR},
		messageSizes(1, 4096), true, 0, 0, "")
}

// Fig2 is the same study on a 4096-node 16x16x16 partition.
func Fig2(cfg Config) (*report.Table, error) {
	return figSweep(cfg, "Figure 2: AR measured vs model on 16x16x16",
		torus.New(16, 16, 16), []collective.Strategy{collective.StratAR},
		messageSizes(1, 4096), true, 0, 0, "")
}

// Fig3 reproduces the per-node throughput summary across partitions: the
// bisection-limited peak, a one-packet all-to-all, and a large-message
// all-to-all. Both runs of a row share the worker's cached network.
func Fig3(cfg Config) (*report.Table, error) {
	shapes := []torus.Shape{
		torus.New(8, 8, 1),
		torus.New(8, 8, 8),
		torus.New(8, 8, 16),
		torus.New(8, 16, 16),
		torus.New(8, 32, 16),
		torus.New(16, 16, 16),
	}
	calib := model.DefaultCalib()
	type f3out struct {
		label         string
		onePkt, large collective.Result
		run           torus.Shape
	}
	t := report.NewTable("Figure 3: AR per-node throughput (MB/s) by partition",
		"Partition", "Peak bisection", "1-packet AA", "Large-message AA")
	out, err := mapRows(cfg, shapes, func(cfg Config, cache *collective.NetCache, i int, paper torus.Shape) (f3out, error) {
		start := time.Now()
		run, scaled := cfg.scale(paper)
		onePkt, err := cfg.runCached(collective.StratAR, cfg.opts(run, 240), cache)
		if err != nil {
			return f3out{}, err
		}
		large, err := cfg.runCached(collective.StratAR, cfg.opts(run, cfg.largeFor(run)), cache)
		if err != nil {
			return f3out{}, err
		}
		label := shapeLabel(paper, run, scaled)
		cfg.rowProgress("  fig3 %d/%d %s (%s)", i+1, len(shapes), label, time.Since(start).Round(time.Millisecond))
		return f3out{label: label, onePkt: onePkt, large: large, run: run}, nil
	})
	if err != nil {
		return t, err
	}
	for _, o := range out {
		t.AddRow(o.label, model.PeakPerNodeBandwidth(calib, o.run), o.onePkt.PerNodeMBs, o.large.PerNodeMBs)
	}
	return t, nil
}

// Fig4 reproduces the direct-strategy comparison (AR, DR, throttled AR)
// across partition shapes, including DR's dimension-order dependence. The
// three runs of a row share the worker's cached network.
func Fig4(cfg Config) (*report.Table, error) {
	shapes := []torus.Shape{
		torus.New(8, 8, 8),
		torus.New(16, 8, 8),
		torus.New(8, 16, 8),
		torus.New(8, 8, 16),
		torus.New(8, 16, 16),
		torus.New(8, 32, 16),
	}
	type f4out struct {
		label      string
		ar, dr, th collective.Result
	}
	t := report.NewTable("Figure 4: percent of peak for direct strategies (large messages)",
		"Partition", "AR %", "DR %", "Throttled %")
	out, err := mapRows(cfg, shapes, func(cfg Config, cache *collective.NetCache, i int, paper torus.Shape) (f4out, error) {
		start := time.Now()
		run, scaled := cfg.scale(paper)
		m := cfg.largeFor(run)
		ar, err := cfg.runCached(collective.StratAR, cfg.opts(run, m), cache)
		if err != nil {
			return f4out{}, err
		}
		dr, err := cfg.runCached(collective.StratDR, cfg.opts(run, m), cache)
		if err != nil {
			return f4out{}, err
		}
		th, err := cfg.runCached(collective.StratThrottle, cfg.opts(run, m), cache)
		if err != nil {
			return f4out{}, err
		}
		label := shapeLabel(paper, run, scaled)
		cfg.rowProgress("  fig4 %d/%d %s (%s)", i+1, len(shapes), label, time.Since(start).Round(time.Millisecond))
		return f4out{label: label, ar: ar, dr: dr, th: th}, nil
	})
	if err != nil {
		return t, err
	}
	for _, o := range out {
		t.AddRow(o.label, o.ar.PercentPeak, o.dr.PercentPeak, o.th.PercentPeak)
	}
	t.AddNote("DR should lead AR when the longest dimension is X (deterministic routing starts packets on X links)")
	return t, nil
}

// Fig5 reproduces the VMesh measurement against its Equation 4 prediction
// on 512 nodes (32x16 virtual mesh).
func Fig5(cfg Config) (*report.Table, error) {
	paper := torus.New(8, 8, 8)
	run, scaled := cfg.scale(paper)
	calib := model.DefaultCalib()
	vc, vr := collective.BalancedFactor(run.P())
	t := report.NewTable(fmt.Sprintf("Figure 5: VMesh (%dx%d) measured vs Eq4 prediction on %v", vc, vr, run),
		"MsgBytes", "Measured MB/s", "Eq4 MB/s")
	if scaled {
		t.AddNote("partition scaled from %v to %v", paper, run)
	}
	sizes := messageSizes(1, 512)
	out, err := mapRows(cfg, sizes, func(cfg Config, cache *collective.NetCache, _ int, m int) (collective.Result, error) {
		opts := cfg.opts(run, m)
		opts.VMeshCols, opts.VMeshRows = vc, vr
		res, err := cfg.runCached(collective.StratVMesh, opts, cache)
		if err != nil {
			return res, err
		}
		cfg.rowProgress("  fig5 m=%d: %.1f MB/s", m, res.PerNodeMBs)
		return res, nil
	})
	if err != nil {
		return t, err
	}
	for j, m := range sizes {
		pred := model.VMeshTime(calib, run, vc, vr, m)
		t.AddRow(m, out[j].PerNodeMBs, model.PerNodeBandwidth(calib, run, m, pred))
	}
	return t, nil
}

// Fig6 reproduces the AR-vs-VMesh comparison on 512 nodes: VMesh wins below
// the 32-64 byte crossover, loses about 2x for large messages.
func Fig6(cfg Config) (*report.Table, error) {
	return figSweep(cfg, "Figure 6: AA comparison on 8x8x8 (short messages)",
		torus.New(8, 8, 8),
		[]collective.Strategy{collective.StratAR, collective.StratVMesh},
		messageSizes(1, 512), false, 32, 16, "")
}

// Fig7 reproduces the three-way comparison (AR, TPS, VMesh) on the
// asymmetric 4096-node 8x32x16 partition.
func Fig7(cfg Config) (*report.Table, error) {
	return figSweep(cfg, "Figure 7: AA comparison on 8x32x16 (short messages)",
		torus.New(8, 32, 16),
		[]collective.Strategy{collective.StratAR, collective.StratTPS, collective.StratVMesh},
		messageSizes(1, 256), false, 128, 32, "xzy")
}
