package main

import (
	"context"
	"fmt"
	"time"

	"alltoall/internal/collective"
	"alltoall/internal/network"
	"alltoall/internal/torus"
)

// layerDecl declares one per-layer metric. The layer is the module name the
// metric starts with.
type layerDecl struct{ name, unit, better string }

// perLayer is every per-layer metric a traced run prints, in the order of
// BENCHMARK.json. A workload that does not load a layer reports 0 for it:
// collective.peak_gap_pts is measured only on paper-rows, experiments.* and
// parallel.* only on short-suite, serve.* only on serve-mix.
var perLayer = []layerDecl{
	{"network.run_ns_per_event", "ns", "lower"},
	{"network.new_ms", "ms", "lower"},
	{"network.reset_ms", "ms", "lower"},
	{"network.events", "count", "lower"},
	{"network.packets", "count", "lower"},
	{"network.sim_time_units", "count", "lower"},
	{"network.events_per_packet", "count", "lower"},
	{"network.queued_events_per_packet", "count", "lower"},
	{"network.grants_bubble_share", "share", "lower"},
	{"network.alloc_mb_per_run", "MB", "lower"},
	{"network.allocs_per_reset_run", "count", "lower"},
	{"network.sync.blocked_wait_share", "share", "lower"},
	{"network.sync.waits_per_advance", "count", "lower"},
	{"network.sync.cross_shard_events", "count", "lower"},
	{"network.shard_speedup", "x", "higher"},
	{"collective.setup_ms", "ms", "lower"},
	{"collective.engine_share", "share", "higher"},
	{"collective.finish_ms", "ms", "lower"},
	{"collective.key_us", "us", "lower"},
	{"collective.cache_speedup", "x", "higher"},
	{"collective.peak_gap_pts", "pts", "lower"},
	{"torus.destorder_ns", "ns", "lower"},
	{"check.on_ratio", "x", "lower"},
	{"observe.on_ratio", "x", "lower"},
	{"experiments.fig6_s", "s", "lower"},
	{"experiments.table4_s", "s", "lower"},
	{"experiments.runs", "count", "lower"},
	{"parallel.pool_efficiency", "share", "higher"},
	{"serve.hit_p50_us", "us", "lower"},
	{"serve.hit_p99_us", "us", "lower"},
	{"serve.miss_p50_ms", "ms", "lower"},
	{"serve.overhead_ms", "ms", "lower"},
	{"serve.hit_rate", "share", "higher"},
	{"serve.sim_runs", "count", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.handler_share", "share", "lower"},
	{"serve.resp_bytes_p50", "bytes", "lower"},
	{"proc.cpu_s", "s", "lower"},
	{"proc.alloc_mb_per_op", "MB", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"trace.overhead_share", "share", "lower"},
}

// probes measures the layers every workload shares with fixed inputs, by
// timing calls into their exported functions. The inputs do not depend on
// the workload or the seed, so a probe reads the same on every workload and
// a change in one is a change in that layer.
func probes(e env, out map[string]float64) error {
	if err := probeNetwork(e, out); err != nil {
		return fmt.Errorf("network probe: %w", err)
	}
	if err := probeCollective(e, out); err != nil {
		return fmt.Errorf("collective probe: %w", err)
	}
	if err := probeShards(e, out); err != nil {
		return fmt.Errorf("shard probe: %w", err)
	}
	probeDestOrder(out)
	return nil
}

// uniformSource sends `count` full-size packets from one node, to every
// stride-th following rank in turn: destinations spread evenly over the
// partition, as in a uniform all-to-all.
type uniformSource struct{ self, p, stride, count, sent int32 }

func (s *uniformSource) Next(int64) (network.PacketSpec, network.SrcStatus, int64) {
	if s.sent >= s.count {
		return network.PacketSpec{}, network.SrcDone, 0
	}
	s.sent++
	return network.PacketSpec{
		Dst:     (s.self + s.sent*s.stride) % s.p,
		Size:    network.MaxPacketBytes,
		Payload: network.MaxPacketBytes,
		Class:   int8(s.sent % 6),
	}, network.SrcReady, 0
}

// finalHandler marks every delivery final; it keeps no state, so it is safe
// on any engine.
type finalHandler struct{}

func (finalHandler) OnDeliver(_ network.Delivered, fw []network.PacketSpec) ([]network.PacketSpec, int64, bool) {
	return fw, 0, true
}

func uniformSources(p, stride, count int) []network.Source {
	srcs := make([]network.Source, p)
	for i := range srcs {
		srcs[i] = &uniformSource{self: int32(i), p: int32(p), stride: int32(stride), count: int32(count)}
	}
	return srcs
}

// probeNetwork times the event engine alone: bench-owned uniform traffic of
// 256-byte packets on 8x8x8, every node to every fourth rank (a quarter of
// an all-to-all, 1.6M events: the full one takes 6 s), serial Run after
// Reset.
func probeNetwork(e env, out map[string]float64) error {
	shape := torus.New(8, 8, 8)
	if e.smoke() {
		shape = torus.New(4, 4, 4)
	}
	p := shape.P()
	const noLimit = 1 << 50

	t0 := time.Now()
	nw, err := network.New(shape, network.DefaultParams(), uniformSources(p, 1, 4), finalHandler{})
	if err != nil {
		return err
	}
	out["network.new_ms"] = millis(time.Since(t0))
	if _, err := nw.Run(noLimit); err != nil { // a short run, so Reset has state to clear
		return err
	}

	before := readUsage()
	const stride = 4
	count := (p - 1) / stride
	srcs := uniformSources(p, stride, count)
	t0 = time.Now()
	if err := nw.Reset(srcs, finalHandler{}); err != nil {
		return err
	}
	out["network.reset_ms"] = millis(time.Since(t0))
	t0 = time.Now()
	if _, err := nw.Run(noLimit); err != nil {
		return err
	}
	wall := time.Since(t0)
	used := readUsage().sub(before)

	st := nw.Stats()
	if want := int64(p) * int64(count); st.FinalPackets != want {
		return fmt.Errorf("uniform traffic delivered %d packets, want %d", st.FinalPackets, want)
	}
	out["network.run_ns_per_event"] = float64(wall) / float64(st.Events())
	var grants int64
	for _, g := range st.GrantsByVC {
		grants += g
	}
	out["network.grants_bubble_share"] = float64(st.GrantsByVC[network.VCBubble]) / float64(grants)
	out["network.alloc_mb_per_run"] = mb(used.allocB)
	out["network.allocs_per_reset_run"] = float64(used.mallocs)
	return nil
}

// probeCollective times collective from outside on one small request, the
// kind serve-mix sends: the cost of a cold against a warm NetCache, the
// split of a warm RunRequest into set-up, engine and result assembly, the
// key path a cache hit pays, and the cost of the check and observe options.
func probeCollective(e env, out map[string]float64) error {
	small := collective.Request{Strategy: collective.StratAR, Shape: torus.New(8, 4, 4), MsgBytes: 8, Seed: 1}
	mid := collective.Request{Strategy: collective.StratAR, Shape: torus.New(8, 4, 4), MsgBytes: largestPacketPayload, Seed: 1}
	if e.smoke() {
		small.Shape, mid.Shape, mid.MsgBytes = torus.New(4, 4, 2), torus.New(4, 4, 2), 64
	}
	ctx := context.Background()
	timed := func(req collective.Request, extra func(*collective.Options)) (time.Duration, error) {
		t0 := time.Now()
		_, err := collective.RunRequest(ctx, req, extra)
		return time.Since(t0), err
	}

	const reps = 5
	var cold, warm, setup, finish, share []float64
	shared := &collective.NetCache{}
	cache := func(o *collective.Options) { o.Cache = shared }
	if _, err := timed(small, cache); err != nil { // fills shared
		return err
	}
	for i := 0; i < reps; i++ {
		d, err := timed(small, func(o *collective.Options) { o.Cache = &collective.NetCache{} })
		if err != nil {
			return err
		}
		cold = append(cold, seconds(d))
		if d, err = timed(small, cache); err != nil {
			return err
		}
		warm = append(warm, seconds(d))

		tr := newTracer()
		call := tr.begin("collective.RunRequest", 0, 1)
		obs := &engineSpans{tr: tr, parent: call, op: 1}
		_, err = collective.RunRequest(ctx, small, func(o *collective.Options) { o.Cache, o.Observer = shared, obs })
		tr.end(call)
		if err != nil {
			return err
		}
		spans := tr.snapshot()
		if len(spans) < 2 {
			return fmt.Errorf("the observer saw no engine run")
		}
		var engine int64
		for _, s := range spans[1:] {
			engine += s.End - s.Start
		}
		total, last := spans[0].End-spans[0].Start, spans[len(spans)-1]
		setup = append(setup, float64(total-engine-(spans[0].End-last.End))/1e6)
		finish = append(finish, float64(spans[0].End-last.End)/1e6)
		share = append(share, float64(engine)/float64(total))
	}
	out["collective.cache_speedup"] = median(cold) / median(warm)
	out["collective.setup_ms"] = median(setup)
	out["collective.finish_ms"] = median(finish)
	out["collective.engine_share"] = median(share)

	const keyReps = 2000
	t0 := time.Now()
	for i := 0; i < keyReps; i++ {
		req := small
		req.Seed = uint64(i)
		if err := req.Validate(); err != nil {
			return err
		}
		keySink += len(req.Key())
	}
	out["collective.key_us"] = micros(time.Since(t0)) / keyReps

	// Check and observe against the plain run, interleaved so a slow spell
	// of the box hits all three alike. The first plain run only warms the
	// cache.
	if _, err := timed(mid, cache); err != nil {
		return err
	}
	checked, observed := mid, mid
	checked.Check, observed.Observe = true, true
	var off, check, observe []float64
	for i := 0; i < reps; i++ {
		for _, v := range []struct {
			req collective.Request
			to  *[]float64
		}{{mid, &off}, {checked, &check}, {observed, &observe}} {
			d, err := timed(v.req, cache)
			if err != nil {
				return err
			}
			*v.to = append(*v.to, seconds(d))
		}
	}
	out["check.on_ratio"] = median(check) / median(off)
	out["observe.on_ratio"] = median(observe) / median(off)
	return nil
}

// probeShards times the sharded engine against the serial one on the same
// request, TPS on the asymmetric 16x4x4 torus, turn about so a slow spell of
// the box hits both alike, and reads the sync layer's own counters. It is the
// committed record of whether sharding pays on this box. With one core there
// is nothing to measure and the metrics read 0.
func probeShards(e env, out map[string]float64) error {
	if e.par < 2 {
		return nil
	}
	req := collective.Request{Strategy: collective.StratTPS, Shape: torus.New(16, 4, 4), MsgBytes: largestPacketPayload, Seed: 1}
	if e.smoke() {
		req.Shape, req.MsgBytes = torus.New(8, 4, 2), 64
	}
	sharded := req
	sharded.Shards = e.par
	const reps = 3
	var serialS, shardedS []float64
	var sync network.SyncStats
	var shardedWall time.Duration
	serialCache, shardedCache := &collective.NetCache{}, &collective.NetCache{}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		want, err := collective.RunRequest(context.Background(), req, func(o *collective.Options) { o.Cache = serialCache })
		if err != nil {
			return err
		}
		serialS = append(serialS, seconds(time.Since(t0)))
		t0 = time.Now()
		got, err := collective.RunRequest(context.Background(), sharded, func(o *collective.Options) {
			o.Cache, o.SyncStats = shardedCache, &sync
		})
		if err != nil {
			return err
		}
		d := time.Since(t0)
		shardedS = append(shardedS, seconds(d))
		shardedWall += d
		if got.Time != want.Time || got.Events != want.Events {
			return fmt.Errorf("sharded run finished at %d after %d events, serial at %d after %d",
				got.Time, got.Events, want.Time, want.Events)
		}
	}
	out["network.shard_speedup"] = median(serialS) / median(shardedS)
	out["network.sync.blocked_wait_share"] = float64(sync.BlockedWaitNs) / (float64(sync.Shards) * float64(shardedWall))
	if sync.HorizonAdvances > 0 {
		out["network.sync.waits_per_advance"] = float64(sync.BlockedWaits) / float64(sync.HorizonAdvances)
	}
	out["network.sync.cross_shard_events"] = float64(sync.CrossShardEvents) / reps
	return nil
}

var keySink int

// probeDestOrder times the destination permutation every direct strategy
// evaluates once per packet.
func probeDestOrder(out map[string]float64) {
	const p, rounds = 512, 1000
	order := torus.NewDestOrder(p, 7, 12345)
	sum := 0
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < order.Len(); i++ {
			sum += order.At(i)
		}
	}
	out["torus.destorder_ns"] = float64(time.Since(t0)) / float64(rounds*order.Len())
	keySink += sum
}
