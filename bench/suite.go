package main

import (
	"fmt"
	"time"

	"alltoall/internal/experiments"
)

// suiteInstance is the short-suite workload: the aabench path. Each pass
// regenerates fig6 and then table4 through experiments.Catalog, so dozens of
// short-message runs fan out over a worker pool and share per-worker
// NetCaches - run-level parallelism on small networks, where per-run set-up
// is a large share of the time.
type suiteInstance struct {
	ids []string
	cfg experiments.Config

	// runs and events of the first pass of each experiment; every later
	// pass must repeat them exactly.
	runs, events map[string]int64
}

func prepareShortSuite(e env) (instance, error) {
	in := &suiteInstance{
		ids: []string{"fig6", "table4"},
		// MaxNodes 128 runs fig6 on 4x4x4 and table4 on 32..128 nodes: a
		// pass takes a third of a second, so a run takes its medians over
		// dozens of them. At the paper's 512 nodes one pass takes 33 s.
		cfg:    experiments.Config{MaxNodes: 128, Seed: e.seed, Workers: e.par, Shards: 1},
		runs:   make(map[string]int64),
		events: make(map[string]int64),
	}
	if e.smoke() {
		in.cfg.MaxNodes = 64
	}
	// Warm-up: one whole pass.
	p, err := in.pass(nil)
	if err != nil {
		return nil, err
	}
	if p.failed > 0 {
		return nil, fmt.Errorf("warm-up pass: %s", p.failures[0])
	}
	return in, nil
}

// runOne regenerates one experiment, timing it and folding its simulator
// counts into p.
func (in *suiteInstance) runOne(id string, cfg experiments.Config, p *passStats) time.Duration {
	m := &experiments.Metrics{}
	cfg.Metrics = m
	t0 := time.Now()
	tab, err := experiments.Catalog[id](cfg)
	d := time.Since(t0)
	p.ops = append(p.ops, d)
	p.check(err == nil && tab != nil && tab.NumRows() > 0, "%s: no table (err=%v)", id, err)
	if first, seen := in.runs[id]; !seen {
		in.runs[id], in.events[id] = m.Runs(), m.Events()
	} else {
		p.check(m.Runs() == first && m.Events() == in.events[id],
			"%s: %d runs and %d events, the first pass had %d and %d", id, m.Runs(), m.Events(), first, in.events[id])
	}
	p.events += m.Events()
	p.queued += m.QueuedEvents()
	p.packets += m.Packets()
	return d
}

func (in *suiteInstance) pass(tr *tracer) (passStats, error) {
	var p passStats
	start := time.Now()
	for _, id := range in.ids {
		op := tr.newOp()
		root := tr.begin("op", 0, op)
		call := tr.begin("experiments."+id, root, op)
		in.runOne(id, in.cfg, &p)
		tr.end(call)
		tr.end(root)
	}
	p.wall = time.Since(start)
	return p, nil
}

func (in *suiteInstance) verify() checks { return checks{} }

func (in *suiteInstance) layers(untraced, traced []passStats, tr *tracer) (map[string]float64, error) {
	out := make(map[string]float64)
	perExp := make([][]float64, len(in.ids))
	for _, p := range untraced {
		for i := range in.ids {
			perExp[i] = append(perExp[i], seconds(p.ops[i]))
		}
	}
	var runs int64
	for i, id := range in.ids {
		out["experiments."+id+"_s"] = median(perExp[i])
		runs += in.runs[id]
	}
	out["experiments.runs"] = float64(runs)

	// Pool efficiency: table4 on one worker against W workers.
	one := in.cfg
	one.Workers = 1
	var serial []float64
	for i := 0; i < 5; i++ {
		var scratch passStats
		serial = append(serial, seconds(in.runOne("table4", one, &scratch)))
		if scratch.failed > 0 {
			return nil, fmt.Errorf("one-worker table4: %s", scratch.failures[0])
		}
	}
	out["parallel.pool_efficiency"] = median(serial) / (float64(in.cfg.Workers) * out["experiments.table4_s"])
	return out, nil
}

func (in *suiteInstance) inputs() []string {
	return []string{fmt.Sprintf("experiments fig6 then table4, MaxNodes=%d Workers=%d Shards=%d Seed=%d",
		in.cfg.MaxNodes, in.cfg.Workers, in.cfg.Shards, in.cfg.Seed)}
}

func (in *suiteInstance) close() {}
