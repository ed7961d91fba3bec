package collective

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"alltoall/internal/network"
	"alltoall/internal/torus"
)

// TestShardedResultsMatchSerial runs every strategy - including TPS with
// credit flow control - on the serial and on the sharded engine and demands
// identical Result structs: the collective layer's handlers and sources
// must be safely partitioned by node, and the engine must be deterministic.
func TestShardedResultsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	base := Options{Request: Request{Shape: torus.New(4, 4, 2), MsgBytes: 512, Seed: 3}}
	credit := base
	credit.TPSCreditWindow = 20
	credit.TPSCreditBatch = 5
	type cse struct {
		name  string
		strat Strategy
		opts  Options
	}
	cases := make([]cse, 0, len(Strategies())+1)
	for _, s := range Strategies() {
		cases = append(cases, cse{string(s), s, base})
	}
	cases = append(cases, cse{"TPS+credit", StratTPS, credit})
	for _, c := range cases {
		ref, err := run(c.strat, c.opts)
		if err != nil {
			t.Fatalf("%s serial: %v", c.name, err)
		}
		for _, shards := range []int{2, 7} {
			opts := c.opts
			opts.Shards = shards
			got, err := run(c.strat, opts)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", c.name, shards, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s shards=%d: result differs from serial\nserial:  %+v\nsharded: %+v",
					c.name, shards, ref, got)
			}
		}
	}
}

// TestAutoShardsMatchOneEngine: leaving Shards at 0 on a partition large
// enough for the engine to split gives the Result of a forced single engine,
// field for field, under the invariant checker - on the 512-node midplane and
// on 8x8x2M, the paper's 128-node mesh at the floor. On a multi-core box the
// auto run must really have used more than one engine, or the comparison says
// nothing. One strategy is enough: the count the engine picks depends only on
// the partition and the idle cores (network's TestAutoShardPolicy), sharded
// identity for every strategy is TestShardedResultsMatchSerial's and for
// patterns TestRunOptsSharded's.
func TestAutoShardsMatchOneEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	plane2, err := torus.Parse("8x8x2M")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		req  Request
		auto int // engines the auto run takes alone on a machine with cores to spare
	}{
		{Request{Strategy: StratAR, Shape: torus.New(8, 8, 8), MsgBytes: 8, Seed: 3, Check: true}, 4},
		{Request{Strategy: StratAR, Shape: plane2, MsgBytes: 480, Seed: 3, Check: true}, 2},
	} {
		var results [2]Result
		var engines [2]int
		for shards := range results {
			var ss network.SyncStats
			opts := Options{Request: c.req, SyncStats: &ss}
			opts.Shards = shards
			var err error
			if results[shards], err = Run(context.Background(), opts); err != nil {
				t.Fatalf("%v shards=%d: %v", c.req.Shape, shards, err)
			}
			engines[shards] = ss.Shards
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Errorf("%v: auto result differs from one engine\none:  %+v\nauto: %+v", c.req.Shape, results[1], results[0])
		}
		if engines[1] != 1 {
			t.Errorf("%v: Shards 1 ran %d engines", c.req.Shape, engines[1])
		}
		if want := min(runtime.GOMAXPROCS(0), c.auto); engines[0] != want {
			t.Errorf("%v: Shards 0 alone on %d cores ran %d engines, want %d", c.req.Shape, runtime.GOMAXPROCS(0), engines[0], want)
		}
	}
}

// BenchmarkShardsByShape times AR at forced engine counts on the paper's
// partitions either side of the auto-sharding floor, on a warm NetCache: one
// full packet per pair (m=208) on each, then the sizes bench's paper-rows and
// serve-mix run them at. It is the harness behind EXPERIMENTS.md's "Shards by
// shape" table (-benchtime 1x, one process per round); wait_share is the
// fraction of the engines' wall time spent in timed barrier waits. Every
// count must reproduce the one-engine Result.
func BenchmarkShardsByShape(b *testing.B) {
	for _, c := range []struct {
		shape string
		m     int
	}{
		{"8x8", 208}, {"8x16", 208}, {"8x8x2M", 208}, {"8x8x4M", 208}, {"16x4x4", 208}, {"8x8x8", 208}, {"8x8x16", 208},
		{"8x8", 960}, {"8x16", 480}, {"8x8x2M", 480}, {"8x4x4", 480},
	} {
		shape, err := torus.Parse(c.shape)
		if err != nil {
			b.Fatal(err)
		}
		var one Result
		for _, shards := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/m=%d/shards=%d", c.shape, c.m, shards), func(b *testing.B) {
				var ss network.SyncStats
				opts := Options{Request: Request{Strategy: StratAR, Shape: shape, MsgBytes: c.m, Seed: 1, Shards: shards},
					Cache: &NetCache{}, SyncStats: &ss}
				res, err := Run(context.Background(), opts)
				if err != nil {
					b.Fatal(err)
				}
				if shards == 1 {
					one = res
				} else if one.Events != 0 && !reflect.DeepEqual(res, one) { // unless -bench filtered shards=1 out
					b.Fatalf("%d engines: Time %d Events %d, one engine: Time %d Events %d", shards, res.Time, res.Events, one.Time, one.Events)
				}
				ss = network.SyncStats{}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Run(context.Background(), opts); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(ss.BlockedWaitNs)/(float64(shards)*float64(b.Elapsed().Nanoseconds())), "wait_share")
			})
		}
	}
}
