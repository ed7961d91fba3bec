package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"time"

	"alltoall/internal/collective"
	"alltoall/internal/torus"
)

// row is one simulation of a closed-loop workload. paper is the percent of
// peak the paper reports for the row's strategy and partition at large
// messages, 0 where it reports none.
type row struct {
	req   collective.Request
	paper float64
}

func (r row) String() string {
	s := fmt.Sprintf("%s %s m=%d", r.req.Strategy, r.req.Shape, r.req.MsgBytes)
	if r.req.Shards > 1 {
		s += fmt.Sprintf(" shards=%d", r.req.Shards)
	}
	if r.paper > 0 {
		s += fmt.Sprintf(" (paper %.1f%%)", r.paper)
	}
	return s
}

// mix64 is splitmix64's output function: the bench derives every generated
// value from the run seed through it, so inputs do not depend on any
// library's generator.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func mustShape(s string) torus.Shape {
	sh, err := torus.Parse(s)
	if err != nil {
		panic(err) // a literal in this file is wrong
	}
	return sh
}

// simInstance runs its rows one after another through collective.RunRequest
// with one shared NetCache: one caller, closed loop.
type simInstance struct {
	rows  []row
	warm  []collective.Request // run once at set-up
	cache *collective.NetCache

	// recheck re-runs warm[0] during verify and requires a Result identical
	// to the set-up run's.
	recheck    bool
	warmResult collective.Result

	last []collective.Result // the latest pass, row by row
}

// largestPacketPayload is the largest per-pair message that still travels as
// one packet: a full 256-byte wire packet less the 48-byte software header.
// A 512-node all-to-all costs about 6M events whatever the message size up
// to here, so this is the most saturated run that fits the time budget.
const largestPacketPayload = 208

// preparePaperRows builds the paper-rows workload: the paper's own
// partitions through the serial engine, one shared NetCache. The three
// 8x8x8 rows are the long saturated runs (about 3 s each); message sizes are
// cut from the paper's large-message regime to fit two passes into a run.
func preparePaperRows(e env) (instance, error) {
	type spec struct {
		strat collective.Strategy
		shape string
		m     int
		paper float64
	}
	specs := []spec{
		{collective.StratAR, "8x8x8", largestPacketPayload, 99.0},  // Table 1
		{collective.StratTPS, "8x8x8", largestPacketPayload, 77.2}, // Table 3
		{collective.StratDR, "8x8x8", largestPacketPayload, 0},     // Fig 4, no number given
		{collective.StratAR, "8x8x4M", largestPacketPayload, 87.7}, // Table 2
		{collective.StratAR, "8x8x2M", 480, 90.1},                  // Table 2
		{collective.StratAR, "8x16", 480, 85.7},                    // Table 2
		{collective.StratAR, "8x8", 960, 98.7},                     // Table 1
	}
	if e.smoke() {
		specs = []spec{
			{collective.StratAR, "4x4x4", 64, 99.0},
			{collective.StratTPS, "4x4x4", 64, 77.2},
			{collective.StratDR, "4x4x4", 64, 0},
			{collective.StratAR, "4x4x2M", 64, 90.1},
			{collective.StratAR, "4x4", 64, 98.7},
		}
	}
	in := &simInstance{cache: &collective.NetCache{}, recheck: true}
	for i, s := range specs {
		in.rows = append(in.rows, row{
			req: collective.Request{Strategy: s.strat, Shape: mustShape(s.shape), MsgBytes: s.m,
				Seed: mix64(e.seed<<8 | uint64(i))},
			paper: s.paper,
		})
	}
	// The smallest row doubles as the warm-up and as the determinism probe.
	in.warm = []collective.Request{in.rows[len(in.rows)-1].req}
	return in, in.warmUp()
}

// prepareShardedAsym builds the sharded-asym workload: TPS then AR on an
// asymmetric torus on the sharded engine, the only workload where the
// cross-shard protocol does work. 16x4x4 keeps a pass near 1.5 s: the shards
// spin while they wait, so a box that loses a core for a moment slows a
// sharded pass several times over, and only a median over many passes is
// steady (on 16x8x4 a pass takes 10 s and a run fits two). The warm-up runs
// both strategies sharded on the half-size 8x4x4 twin.
func prepareShardedAsym(e env) (instance, error) {
	shape, twin, m := "16x4x4", "8x4x4", largestPacketPayload
	if e.smoke() {
		shape, twin, m = "8x4x2", "4x4x2", 64
	}
	in := &simInstance{cache: &collective.NetCache{}}
	for i, strat := range []collective.Strategy{collective.StratTPS, collective.StratAR} {
		seed := mix64(e.seed<<8 | uint64(i))
		in.rows = append(in.rows, row{req: collective.Request{Strategy: strat, Shape: mustShape(shape),
			MsgBytes: m, Seed: seed, Shards: e.par}})
		in.warm = append(in.warm, collective.Request{Strategy: strat, Shape: mustShape(twin),
			MsgBytes: m, Seed: seed, Shards: e.par})
	}
	return in, in.warmUp()
}

func (in *simInstance) warmUp() error {
	for i, req := range in.warm {
		res, err := collective.RunRequest(context.Background(), req, in.withCache)
		if err != nil {
			return fmt.Errorf("warm-up %s %s: %w", req.Strategy, req.Shape, err)
		}
		if i == 0 {
			in.warmResult = res
		}
	}
	return nil
}

func (in *simInstance) withCache(o *collective.Options) { o.Cache = in.cache }

func (in *simInstance) pass(tr *tracer) (passStats, error) {
	var p passStats
	in.last = in.last[:0]
	start := time.Now()
	for _, r := range in.rows {
		extras := []func(*collective.Options){in.withCache}
		op := tr.newOp()
		root := tr.begin("op", 0, op)
		call := tr.begin("collective.RunRequest", root, op)
		if tr != nil {
			obs := &engineSpans{tr: tr, parent: call, op: op}
			extras = append(extras, func(o *collective.Options) { o.Observer = obs })
		}
		t0 := time.Now()
		res, err := collective.RunRequest(context.Background(), r.req, extras...)
		p.ops = append(p.ops, time.Since(t0))
		tr.end(call)
		if err != nil {
			p.check(false, "%s: %v", r, err)
		} else {
			checkResult(&p.checks, r.String(), res)
			p.events += res.Events
			p.queued += res.QueuedEvents
			p.packets += res.PacketsInjected
			p.simTime += res.Time
			in.last = append(in.last, res)
		}
		tr.end(root)
	}
	p.wall = time.Since(start)
	return p, nil
}

// checkResult applies the checks every simulated all-to-all must pass,
// whatever its strategy: all the payload arrived, and it did not finish
// before the Equation 2 peak time, a lower bound on any schedule.
func checkResult(c *checks, what string, res collective.Result) {
	p := int64(res.Shape.P())
	want := p * (p - 1) * int64(res.MsgBytes)
	c.check(res.PayloadBytes == want, "%s: delivered %d payload bytes, want %d", what, res.PayloadBytes, want)
	c.check(float64(res.Time) >= res.Shape.PeakTime(res.MsgBytes) && res.PercentPeak <= 100,
		"%s: finished at %d units, before the Eq 2 peak %.0f (%.2f%% of peak)",
		what, res.Time, res.Shape.PeakTime(res.MsgBytes), res.PercentPeak)
}

func (in *simInstance) verify() checks {
	var c checks
	if !in.recheck {
		return c
	}
	again, err := collective.RunRequest(context.Background(), in.warm[0], func(o *collective.Options) {
		o.Cache = &collective.NetCache{}
	})
	c.check(err == nil && reflect.DeepEqual(again, in.warmResult),
		"%s %s m=%d: a second run with the same seed gave a different Result (err=%v)",
		in.warm[0].Strategy, in.warm[0].Shape, in.warm[0].MsgBytes, err)
	return c
}

func (in *simInstance) layers(untraced, traced []passStats, tr *tracer) (map[string]float64, error) {
	out := make(map[string]float64)
	// Mean distance to the paper over the rows it gives a number for.
	var gap float64
	var n int
	for i, r := range in.rows {
		if r.paper > 0 && i < len(in.last) {
			gap += math.Abs(in.last[i].PercentPeak - r.paper)
			n++
		}
	}
	if n > 0 {
		out["collective.peak_gap_pts"] = gap / float64(n)
	}
	return out, nil
}

func (in *simInstance) inputs() []string {
	var out []string
	for _, r := range in.rows {
		out = append(out, r.String())
	}
	return out
}

func (in *simInstance) close() {}
