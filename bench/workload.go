package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"
)

// env is what a workload is built from. Everything a workload generates is a
// pure function of seed and scale; par is min(2, nproc) and sizes workers,
// shards and HTTP clients alike.
type env struct {
	seed   uint64
	scale  string // "full" is the benchmark; "smoke" is the seconds-long version the tests run
	par    int
	traced bool // the run makes traced passes, so set-up installs the span hooks
}

func (e env) smoke() bool { return e.scale == "smoke" }

// workload is one named set of inputs. prepare is its set-up: it generates
// the inputs from the seed, builds whatever the timed section needs and
// warms it. A run calls prepare setups times and reports the median as
// setup_s, so work moved out of the timed section shows there; every
// instance but the last is closed unused.
type workload struct {
	name   string
	setups int
	// tail caps the percentile op_tail_ms is reported at (see tailPercentile).
	tail    float64
	prepare func(env) (instance, error)
}

// instance is a prepared workload. pass runs its fixed operation list once;
// the run repeats passes until its time is up and reports medians over them,
// so every pass of one instance must be the same work.
type instance interface {
	// pass records spans into tr when it is non-nil.
	pass(tr *tracer) (passStats, error)
	// verify runs the output checks that are not tied to one operation.
	verify() checks
	// layers returns this workload's own per-layer metrics from the passes
	// of a traced run. It may run extra untimed work (a serial twin, a
	// one-worker pass).
	layers(untraced, traced []passStats, tr *tracer) (map[string]float64, error)
	inputs() []string
	close()
}

// checks counts output checks and keeps the first few failure messages.
type checks struct {
	attempted int
	failures  []string
	failed    int
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func (c *checks) merge(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, f := range o.failures {
		if len(c.failures) < 20 {
			c.failures = append(c.failures, f)
		}
	}
}

// passStats is what one pass over the operation list measured.
type passStats struct {
	wall time.Duration
	ops  []time.Duration // one latency per operation
	// stolen is the CPU time the hypervisor withheld during the pass, summed
	// over the box's CPUs.
	stolen time.Duration

	// Exact simulator counts behind the pass (network layer).
	events, queued, packets, simTime int64

	checks
}

// workloads is every workload the program runs. BENCHMARK.json declares all
// but sharded-asym to the acceptance driver (see README.md: its wall time on
// a shared 2-vCPU box spreads wider than any bound the driver accepts).
var workloads = []workload{
	{name: "paper-rows", setups: 5, tail: 50, prepare: preparePaperRows},     // 14-21 operations a run
	{name: "sharded-asym", setups: 5, tail: 50, prepare: prepareShardedAsym}, // 24-38
	{name: "short-suite", setups: 5, tail: 90, prepare: prepareShortSuite},   // 180-260
	{name: "serve-mix", setups: 3, tail: 99, prepare: prepareServeMix},       // 2000-3200
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	scale    string
	log      io.Writer
}

// run executes one workload and returns its record. Errors are for a broken
// harness; a failed output check is reported through the record.
func run(cfg runConfig) (*result, []span, error) {
	wl, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(nproc, 4))
	e := env{seed: cfg.seed, scale: cfg.scale, par: min(2, nproc), traced: cfg.traced}
	res := &result{
		SchemaVersion: 1,
		Workload:      wl.name,
		Seed:          cfg.seed,
		Seconds:       cfg.seconds,
		Scale:         cfg.scale,
		Trace:         cfg.traced,
		StartedUTC:    time.Now().UTC().Format(time.RFC3339),
		Host:          fingerprint(),
		CoresShort:    wl.name == "sharded-asym" && nproc < 2,
		Metrics:       make(map[string]metric),
	}

	var inst instance
	var setups []time.Duration
	for i := 0; i < wl.setups; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = wl.prepare(e); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(t0))
	}
	defer inst.close()
	res.Inputs = inst.inputs()
	fmt.Fprintf(cfg.log, "%s: set-up x%d, median %.3fs\n", wl.name, len(setups), median(durations(setups, seconds)))

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	before := readUsage()
	untraced, traced, err := timedPasses(inst, tr, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	used := readUsage().sub(before)

	var all checks
	for _, p := range concat(untraced, traced) {
		all.attempted += len(p.ops)
		all.merge(p.checks)
	}
	all.merge(inst.verify())
	res.Passes = len(untraced) + len(traced)

	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if !cfg.traced {
		var walls, evRate, opRate, lat []float64
		for _, p := range untraced {
			w := seconds(p.wall)
			walls = append(walls, w)
			evRate = append(evRate, float64(p.events)/w)
			opRate = append(opRate, float64(len(p.ops))/w)
			lat = append(lat, durations(p.ops, millis)...)
			res.PassStolenS = append(res.PassStolenS, seconds(p.stolen))
		}
		res.PassWallS = walls
		tl := tailPercentile(lat, wl.tail)
		res.TailPercentile, res.OpSamples = tl.Percentile, tl.Samples
		rss, err := peakRSSMB()
		if err != nil {
			return nil, nil, err
		}
		set("setup_s", "s", median(durations(setups, seconds)))
		set("wall_s", "s", median(walls))
		set("events_per_s", "1/s", median(evRate))
		set("ops_per_s", "1/s", median(opRate))
		set("op_tail_ms", "ms", tl.Value)
		set("peak_rss_mb", "MB", rss)
	} else {
		layer, err := layerMetrics(inst, e, untraced, traced, used, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		for _, d := range perLayer {
			set(d.name, d.unit, layer[d.name]) // a layer this workload does not load reads 0
		}
	}
	res.Attempted, res.Failed, res.Failures = all.attempted, all.failed, all.failures
	res.Correct = all.failed == 0
	return res, tr.snapshot(), nil
}

func concat(a, b []passStats) []passStats {
	return append(append([]passStats(nil), a...), b...)
}

// timedPasses repeats the instance's pass for cfg.seconds. An untraced run
// makes only untraced passes; a traced run alternates the two kinds, so the
// pair differs by the tracing alone. A new pass starts only while it is
// expected to end within half a pass of the time limit, which keeps a run
// near cfg.seconds on a slow box; there are always at least two passes (one
// of each kind when tracing) because a median needs them.
func timedPasses(inst instance, tr *tracer, cfg runConfig) (untraced, traced []passStats, err error) {
	limit := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	var walls []float64
	for n := 0; ; n++ {
		if n >= 2 {
			expect := time.Duration(median(walls) * float64(time.Second))
			if time.Since(start)+expect/2 > limit {
				break
			}
		}
		passTr := tr
		if n%2 == 0 {
			passTr = nil
		}
		steal := stealTicks()
		p, err := inst.pass(passTr)
		if err != nil {
			return nil, nil, err
		}
		p.stolen = time.Duration(stealTicks()-steal) * 10 * time.Millisecond
		walls = append(walls, seconds(p.wall))
		if passTr == nil {
			untraced = append(untraced, p)
		} else {
			traced = append(traced, p)
		}
	}
	fmt.Fprintf(cfg.log, "%s: %d untraced and %d traced passes in %.1fs, pass wall min/median/max %.3f/%.3f/%.3fs\n",
		cfg.workload, len(untraced), len(traced), seconds(time.Since(start)),
		quantileSorted(sorted(walls), 0), median(walls), quantileSorted(sorted(walls), 1))
	return untraced, traced, nil
}

// layerMetrics assembles the per-layer record of a traced run: the
// workload's own layers, the fixed probes every workload shares, the process
// counters over the timed passes, and the tracing overhead.
func layerMetrics(inst instance, e env, untraced, traced []passStats, used usage, tr *tracer) (map[string]float64, error) {
	out, err := inst.layers(untraced, traced, tr)
	if err != nil {
		return nil, err
	}
	if err := probes(e, out); err != nil {
		return nil, err
	}

	// Exact counts of one traced pass; every pass of an instance is the same
	// work, so any one will do.
	p := traced[0]
	out["network.events"] = float64(p.events)
	out["network.packets"] = float64(p.packets)
	out["network.sim_time_units"] = float64(p.simTime)
	if p.packets > 0 {
		out["network.events_per_packet"] = float64(p.events) / float64(p.packets)
		out["network.queued_events_per_packet"] = float64(p.queued) / float64(p.packets)
	}

	passes, ops := len(untraced)+len(traced), 0
	for _, q := range concat(untraced, traced) {
		ops += len(q.ops)
	}
	out["proc.cpu_s"] = seconds(used.cpu) / float64(passes)
	out["proc.alloc_mb_per_op"] = mb(used.allocB) / float64(ops)
	out["proc.gc_pause_ms"] = millis(used.gcPause) / float64(passes)

	wallOf := func(ps []passStats) float64 {
		var ws []float64
		for _, q := range ps {
			ws = append(ws, seconds(q.wall))
		}
		return median(ws)
	}
	u := wallOf(untraced)
	out["trace.overhead_share"] = (wallOf(traced) - u) / u

	for name, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s is not finite", name)
		}
	}
	return out, nil
}
