// Package experiments regenerates every table and figure of the paper's
// evaluation. Each is the same object - strategies x partitions x message
// sizes -> percent of peak - so each is written as data: a grid of cells
// (one simulation each, see cell) with the paper's published numbers
// alongside, plus a short function that renders the grid's outcomes as the
// rows/series the paper reports. One runner, runGrid, executes every grid.
//
// The default configuration scales partitions above MaxNodes down by
// halving every dimension (preserving the aspect ratio that drives the
// paper's phenomena); MaxNodes = math.MaxInt simulates the true machine
// sizes, which takes hours for the largest rows.
//
// The cells of a grid are independent simulations, so they run on a worker
// pool (Config.Workers); every run is seeded independently of scheduling,
// making output identical at any worker count.
package experiments

import (
	"fmt"
	"io"

	"alltoall/internal/collective"
	"alltoall/internal/model"
	"alltoall/internal/report"
	"alltoall/internal/torus"
)

// Config controls experiment scale and reproducibility.
type Config struct {
	// MaxNodes bounds simulated partition size (default 1024); partitions
	// above it are scaled down. math.MaxInt runs the paper's true machine
	// sizes.
	MaxNodes int
	// Seed randomizes destination orders.
	Seed uint64
	// LargeBytes overrides the per-pair payload used for "large message"
	// rows (default: chosen per partition size to bound runtime).
	LargeBytes int

	// Workers bounds experiment concurrency: a grid's distinct simulations
	// fan out over this many goroutines (0 = GOMAXPROCS, 1 = serial).
	// Tables are byte-identical at any setting.
	Workers int
	// Shards is every run's collective.Request.Shards: 0 (default) lets the
	// engine decide, n forces n engines. The engine counts each pool worker
	// as a core in use, so a full pool runs one engine per run and the tail
	// of a grid may shard once the other workers have exited. Tables are
	// byte-identical at any setting.
	Shards int
	// Progress, when non-nil, receives one line per completed cell
	// (typically os.Stderr, so tables on stdout stay clean).
	Progress io.Writer
	// Metrics, when non-nil, accumulates run/event/packet counts across
	// every simulation the experiment runs.
	Metrics *Metrics

	// Check enables the simulator's runtime invariant checker for every
	// run of the experiment (collective.Request.Check). Costs about 2x
	// simulation time (the bench's check.on_ratio); tables are unchanged
	// when the invariants hold.
	Check bool

	// Trace, when non-nil, instruments every collective run with an
	// observe.Collector and records its per-run summary (and, if the sink
	// keeps traces, its windowed JSONL trace) under the experiment's id.
	// Tables are unchanged: observation never perturbs a simulation.
	Trace *TraceSink
}

// largeFor picks the "large message" payload for a partition: large enough
// to reach the asymptotic regime, small enough to keep the event count (and
// wall-clock) bounded. Each size is k·256 − 48 B, so with the 48 B software
// header a message is exactly k full packets: 8 up to 256 nodes, 4 at 512,
// 2 up to 1024 and 1 above.
func (c Config) largeFor(s torus.Shape) int {
	if c.LargeBytes > 0 {
		return c.LargeBytes
	}
	switch p := s.P(); {
	case p <= 256:
		return 2000
	case p <= 512:
		return 976
	case p <= 1024:
		return 464
	default:
		return 208
	}
}

// scale halves every even dimension of s until it fits the node budget,
// keeping the wrap flags; s comes back unchanged when it already fits.
func (c Config) scale(s torus.Shape) torus.Shape {
	maxN := c.MaxNodes
	if maxN == 0 {
		maxN = 1024
	}
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
	}
	return s
}

// experiment is one table or figure: the grid of runs behind it and the
// function that lays their outcomes (in cell order) out as the paper does.
type experiment struct {
	id     string
	cells  []cell
	render func(outs []outcome) *report.Table
}

func (e experiment) run(cfg Config) (*report.Table, error) {
	outs, err := runGrid(cfg, e.id, e.cells)
	if err != nil {
		return nil, err
	}
	return e.render(outs), nil
}

// perShape builds the grid of a per-partition table: the given cells
// (strategy, msg, tune) on each partition in turn.
func perShape(shapes []torus.Shape, cells ...cell) []cell {
	var grid []cell
	for _, s := range shapes {
		for _, c := range cells {
			c.paper = s
			grid = append(grid, c)
		}
	}
	return grid
}

// Runner regenerates one experiment.
type Runner func(Config) (*report.Table, error)

// catalog lists every experiment in presentation order.
var catalog = []experiment{
	// "All-to-all peak performance of various symmetric partitions for
	// large messages" (AR strategy).
	peakTable("table1", "Table 1: AR percent of peak on symmetric partitions (large messages)",
		collective.StratAR, []paperRow{
			{shape: torus.New(8, 1, 1), paper: 98.2},
			{shape: torus.New(16, 1, 1), paper: 97.7},
			{shape: torus.New(8, 8, 1), paper: 98.7},
			{shape: torus.New(16, 16, 1), paper: 99.7},
			{shape: torus.New(8, 8, 8), paper: 99.0},
			{shape: torus.New(16, 16, 16), paper: 99.0},
		}, "measured on the packet-level simulator; expect a uniform few-percent tax versus hardware"),
	// "AA performance using the AR strategy for large message sizes on
	// various processor partitions" ("M" = mesh dimension).
	peakTable("table2", "Table 2: AR percent of peak on asymmetric partitions (large messages)",
		collective.StratAR, []paperRow{
			{shape: torus.NewMesh(8, 2, 1, true, false, false), paper: 91.8},
			{shape: torus.NewMesh(8, 4, 1, true, false, false), paper: 89.0},
			{shape: torus.New(8, 16, 1), paper: 85.7},
			{shape: torus.New(8, 32, 1), paper: 84.0},
			{shape: torus.NewMesh(8, 8, 2, true, true, false), paper: 90.1},
			{shape: torus.NewMesh(8, 8, 4, true, true, false), paper: 87.7},
			{shape: torus.New(8, 8, 16), paper: 81.0},
			{shape: torus.New(8, 16, 16), paper: 87.0},
			{shape: torus.New(8, 32, 16), paper: 73.3},
			{shape: torus.New(16, 32, 16), paper: 71.0},
			{shape: torus.New(32, 32, 16), paper: 73.6},
		}),
	// "All-to-all performance using the Two Phase Schedule (TPS) algorithm
	// for long messages", including the phase-1 dimension.
	peakTable("table3", "Table 3: Two Phase Schedule percent of peak (long messages)",
		collective.StratTPS, []paperRow{
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
		}, "on fully symmetric shapes any linear dimension is equivalent; the paper picked Z for 8x8x8, this implementation picks X"),
	table4(),
	// The AR throughput-vs-message-size curve with the model prediction on
	// the 512-node midplane, and the same study on 4096 nodes.
	arVsModel("fig1", "Figure 1: AR measured vs model on 8x8x8", torus.New(8, 8, 8)),
	arVsModel("fig2", "Figure 2: AR measured vs model on 16x16x16", torus.New(16, 16, 16)),
	fig3(),
	fig4(),
	fig5(),
	// AR vs VMesh on 512 nodes: VMesh wins below the 32-64 byte crossover,
	// loses about 2x for large messages.
	sweep{
		title: "Figure 6: AA comparison on 8x8x8 (short messages)",
		paper: torus.New(8, 8, 8),
		strats: []cell{
			{strat: collective.StratAR},
			{strat: collective.StratVMesh, tune: vmeshAs(32, 16, "")},
		},
		sizes: messageSizes(1, 512),
	}.figure("fig6"),
	// The three-way comparison on the asymmetric 4096-node partition.
	sweep{
		title: "Figure 7: AA comparison on 8x32x16 (short messages)",
		paper: torus.New(8, 32, 16),
		strats: []cell{
			{strat: collective.StratAR},
			{strat: collective.StratTPS},
			{strat: collective.StratVMesh, tune: vmeshAs(128, 32, "xzy")},
		},
		sizes: messageSizes(1, 256),
	}.figure("fig7"),
	ablate(),
	degrade(),
}

// Catalog maps experiment ids (table1..table4, fig1..fig7, ablate, degrade)
// to runners; Order gives the ids in presentation order.
var Catalog, Order = func() (map[string]Runner, []string) {
	m := make(map[string]Runner, len(catalog))
	var ids []string
	for _, e := range catalog {
		m[e.id] = e.run
		ids = append(ids, e.id)
	}
	return m, ids
}()

// paperRow is one partition of Tables 1-3 with the paper's percent of peak
// and, in Table 3, the dimension the paper ran phase 1 on.
type paperRow struct {
	shape torus.Shape
	paper float64
	dim   string
}

// peakTable is Tables 1-3: one strategy's large-message percent of peak
// across partitions, one run a row, against the paper's value. Rows that
// name the paper's phase-1 dimension get the chosen one beside it in place
// of the message size.
func peakTable(id, title string, strat collective.Strategy, rows []paperRow, notes ...string) experiment {
	e := experiment{id: id}
	for _, r := range rows {
		e.cells = append(e.cells, cell{strat: strat, paper: r.shape})
	}
	e.render = func(outs []outcome) *report.Table {
		last := []string{"MsgBytes"}
		if rows[0].dim != "" {
			last = []string{"Paper dim", "Chosen dim"}
		}
		t := report.NewTable(title, append([]string{"Partition", "Paper %", "Measured %"}, last...)...)
		for i, r := range rows {
			o := outs[i]
			if r.dim != "" {
				t.AddRow(o.label(), r.paper, o.res.PercentPeak, r.dim, o.res.TPSLinearDim.Dim().String())
			} else {
				t.AddRow(o.label(), r.paper, o.res.PercentPeak, o.res.MsgBytes)
			}
		}
		for _, n := range notes {
			t.AddNote("%s", n)
		}
		return t
	}
	return e
}

// table4 reproduces the 1-byte all-to-all latency comparison between TPS
// and AR. Latencies are reported in calibrated milliseconds; scaled
// partitions are proportionally faster, so the comparison column is the
// TPS/AR ratio.
func table4() experiment {
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
	e := experiment{id: "table4"}
	for _, r := range rows {
		e.cells = append(e.cells,
			cell{strat: collective.StratTPS, paper: r.shape, msg: 1},
			cell{strat: collective.StratAR, paper: r.shape, msg: 1})
	}
	e.render = func(outs []outcome) *report.Table {
		t := report.NewTable("Table 4: 1-byte all-to-all latency, TPS vs AR (ms)",
			"Partition", "Paper TPS", "Paper AR", "Meas TPS", "Meas AR", "Paper ratio", "Meas ratio")
		for i, r := range rows {
			tps, ar := outs[2*i], outs[2*i+1]
			t.AddRow(tps.label(),
				r.paperTPS, r.paperAR,
				fmt.Sprintf("%.3f", tps.res.Seconds*1e3), fmt.Sprintf("%.3f", ar.res.Seconds*1e3),
				fmt.Sprintf("%.2f", r.paperTPS/r.paperAR),
				fmt.Sprintf("%.2f", tps.res.Seconds/ar.res.Seconds))
		}
		t.AddNote("the sign flip matters: TPS is slower than AR on small partitions and faster on large asymmetric ones")
		return t
	}
	return e
}

// sweep is a message-size study of per-node throughput on one partition:
// one cell a (strategy, size) point, strategy-major.
type sweep struct {
	title  string
	paper  torus.Shape
	strats []cell // strategy and tune of each series; paper and msg are filled in per point
	sizes  []int
}

func (s sweep) cells() []cell {
	var grid []cell
	for _, c := range s.strats {
		for _, m := range s.sizes {
			c.paper, c.msg = s.paper, m
			grid = append(grid, c)
		}
	}
	return grid
}

// column is an analytic series a figure plots beside the measured ones,
// evaluated for the partition actually simulated.
type column struct {
	name string
	at   func(run torus.Shape, m int) float64
}

// figure renders the sweep one row a message size: MB/s and percent of peak
// per strategy, then the model columns.
func (s sweep) figure(id string, model ...column) experiment {
	return experiment{id, s.cells(), func(outs []outcome) *report.Table {
		cols := []string{"MsgBytes"}
		for _, c := range s.strats {
			cols = append(cols, string(c.strat)+" MB/s", string(c.strat)+" %peak")
		}
		for _, c := range model {
			cols = append(cols, c.name)
		}
		t := report.NewTable(s.title, cols...)
		run := outs[0].run
		if run != s.paper {
			t.AddNote("partition scaled from %v to %v (node budget); aspect ratio preserved", s.paper, run)
		}
		for j, m := range s.sizes {
			r := []any{m}
			for i := range s.strats {
				res := outs[i*len(s.sizes)+j].res
				r = append(r, res.PerNodeMBs, res.PercentPeak)
			}
			for _, c := range model {
				r = append(r, c.at(run, m))
			}
			t.AddRow(r...)
		}
		return t
	}}
}

// arVsModel is Figures 1 and 2: the AR curve with Equation 3's prediction
// and the bisection peak.
func arVsModel(id, title string, paper torus.Shape) experiment {
	calib := model.DefaultCalib()
	return sweep{title, paper, []cell{{strat: collective.StratAR}}, messageSizes(1, 4096)}.figure(id,
		column{"Eq3 MB/s", func(run torus.Shape, m int) float64 {
			return model.PerNodeBandwidth(calib, run, m, model.DirectTime(calib, run, m))
		}},
		column{"Peak MB/s", func(run torus.Shape, _ int) float64 { return model.PeakPerNodeBandwidth(calib, run) }})
}

// vmeshAs is the tune of a VMesh series that pins the paper's virtual-mesh
// factorization and mapping order. The factorization only fits the paper's
// node count; a scaled run keeps the balanced default of what it simulates.
func vmeshAs(cols, rows int, order string) func(*collective.Options) error {
	return func(o *collective.Options) error {
		if cols*rows == o.Shape.P() {
			o.VMeshCols, o.VMeshRows = cols, rows
		}
		o.VMeshMapOrder = order
		return nil
	}
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

// fig3 reproduces the per-node throughput summary across partitions: the
// bisection-limited peak, a one-packet all-to-all (208 B, which the 48 B
// header fills to one 256 B packet), and a large-message all-to-all.
func fig3() experiment {
	e := experiment{id: "fig3", cells: perShape([]torus.Shape{
		torus.New(8, 8, 1),
		torus.New(8, 8, 8),
		torus.New(8, 8, 16),
		torus.New(8, 16, 16),
		torus.New(8, 32, 16),
		torus.New(16, 16, 16),
	}, cell{strat: collective.StratAR, msg: 208}, cell{strat: collective.StratAR})}
	e.render = func(outs []outcome) *report.Table {
		t := report.NewTable("Figure 3: AR per-node throughput (MB/s) by partition",
			"Partition", "Peak bisection", "1-packet AA", "Large-message AA")
		for i := 0; i < len(outs); i += 2 {
			onePkt, large := outs[i], outs[i+1]
			t.AddRow(onePkt.label(), model.PeakPerNodeBandwidth(model.DefaultCalib(), onePkt.run),
				onePkt.res.PerNodeMBs, large.res.PerNodeMBs)
		}
		return t
	}
	return e
}

// fig4 reproduces the direct-strategy comparison (AR, DR, throttled AR)
// across partition shapes, including DR's dimension-order dependence.
func fig4() experiment {
	e := experiment{id: "fig4", cells: perShape([]torus.Shape{
		torus.New(8, 8, 8),
		torus.New(16, 8, 8),
		torus.New(8, 16, 8),
		torus.New(8, 8, 16),
		torus.New(8, 16, 16),
		torus.New(8, 32, 16),
	}, cell{strat: collective.StratAR}, cell{strat: collective.StratDR}, cell{strat: collective.StratThrottle})}
	e.render = func(outs []outcome) *report.Table {
		t := report.NewTable("Figure 4: percent of peak for direct strategies (large messages)",
			"Partition", "AR %", "DR %", "Throttled %")
		for i := 0; i < len(outs); i += 3 {
			ar, dr, th := outs[i], outs[i+1], outs[i+2]
			t.AddRow(ar.label(), ar.res.PercentPeak, dr.res.PercentPeak, th.res.PercentPeak)
		}
		t.AddNote("DR should lead AR when the longest dimension is X (deterministic routing starts packets on X links)")
		return t
	}
	return e
}

// fig5 reproduces the VMesh measurement against its Equation 4 prediction
// on 512 nodes (32x16 virtual mesh, the balanced factorization VMesh picks
// by default).
func fig5() experiment {
	s := sweep{paper: torus.New(8, 8, 8), strats: []cell{{strat: collective.StratVMesh}}, sizes: messageSizes(1, 512)}
	return experiment{"fig5", s.cells(), func(outs []outcome) *report.Table {
		o := outs[0]
		vc, vr := o.res.VMeshCols, o.res.VMeshRows
		t := report.NewTable(fmt.Sprintf("Figure 5: VMesh (%dx%d) measured vs Eq4 prediction on %v", vc, vr, o.run),
			"MsgBytes", "Measured MB/s", "Eq4 MB/s")
		if o.run != o.paper {
			t.AddNote("partition scaled from %v to %v", o.paper, o.run)
		}
		calib := model.DefaultCalib()
		for j, m := range s.sizes {
			pred := model.VMeshTime(calib, o.run, vc, vr, m)
			t.AddRow(m, outs[j].res.PerNodeMBs, model.PerNodeBandwidth(calib, o.run, m, pred))
		}
		return t
	}}
}
