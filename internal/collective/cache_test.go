package collective

import (
	"reflect"
	"testing"

	"alltoall/internal/network"
	"alltoall/internal/torus"
)

// TestNetCacheDeterminism is the load-bearing property of Network.Reset:
// recycling a network across runs must yield byte-identical Results to
// building a fresh network every time, for every strategy and across
// message sizes. Sweeps and the parallel experiment engine rely on this.
func TestNetCacheDeterminism(t *testing.T) {
	shape := torus.New(4, 4, 2)
	cache := &NetCache{}
	for _, strat := range Strategies() {
		for _, m := range []int{8, 240} {
			fresh, err := run(strat, Options{Request: Request{Shape: shape, MsgBytes: m, Seed: 5}})
			if err != nil {
				t.Fatalf("%s m=%d fresh: %v", strat, m, err)
			}
			cached, err := run(strat, Options{Request: Request{Shape: shape, MsgBytes: m, Seed: 5}, Cache: cache})
			if err != nil {
				t.Fatalf("%s m=%d cached: %v", strat, m, err)
			}
			cached.Shape = fresh.Shape // identical by construction
			if !reflect.DeepEqual(fresh, cached) {
				t.Errorf("%s m=%d: cached run diverged from fresh run\nfresh:  %+v\ncached: %+v",
					strat, m, fresh, cached)
			}
		}
	}
	if cache.nw == nil {
		t.Fatal("cache never populated")
	}
}

// TestNetCacheAfterError ensures a network abandoned mid-run (MaxTime
// exceeded) is still fully recycled by Reset: the ablation grid hits this
// path whenever a collapsed variant precedes a healthy one on a worker.
func TestNetCacheAfterError(t *testing.T) {
	shape := torus.New(4, 4, 2)
	cache := &NetCache{}
	fresh, err := run(StratAR, Options{Request: Request{Shape: shape, MsgBytes: 240, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(StratAR, Options{Request: Request{Shape: shape, MsgBytes: 240, Seed: 3, MaxTime: 50}, Cache: cache}); err == nil {
		t.Fatal("MaxTime=50 run unexpectedly completed")
	}
	cached, err := run(StratAR, Options{Request: Request{Shape: shape, MsgBytes: 240, Seed: 3}, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, cached) {
		t.Errorf("run after aborted cached run diverged:\nfresh:  %+v\ncached: %+v", fresh, cached)
	}
}

// TestNetCacheCrossShape ensures a cache survives shape changes by falling
// back to allocation (and re-caching the new shape).
func TestNetCacheCrossShape(t *testing.T) {
	cache := &NetCache{}
	shapes := []torus.Shape{torus.New(4, 2, 1), torus.New(4, 4, 1), torus.New(4, 2, 1)}
	var want []Result
	for _, s := range shapes {
		r, err := run(StratAR, Options{Request: Request{Shape: s, MsgBytes: 64, Seed: 2}})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	for i, s := range shapes {
		r, err := run(StratAR, Options{Request: Request{Shape: s, MsgBytes: 64, Seed: 2}, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r, want[i]) {
			t.Errorf("shape %v via cache diverged:\nfresh:  %+v\ncached: %+v", s, want[i], r)
		}
	}
}

// TestNetCacheCrossShapeSharded drives one cache through alternating shapes
// AND engine selections (serial / 4-shard), with invariant checking on: a
// recycled network must rebuild its shard engines for the new run and still
// produce byte-identical results. This is the reuse pattern of the parallel
// experiment engine when a worker's row mix changes partition size.
func TestNetCacheCrossShapeSharded(t *testing.T) {
	cache := &NetCache{}
	steps := []struct {
		shape  torus.Shape
		shards int
	}{
		{torus.New(4, 4, 2), 4},
		{torus.New(4, 2, 2), 1},
		{torus.New(4, 4, 2), 1},
		{torus.New(4, 2, 2), 4},
	}
	for i, st := range steps {
		fresh, err := run(StratAR, Options{Request: Request{Shape: st.shape, MsgBytes: 240, Seed: 2, Shards: st.shards, Check: true}})
		if err != nil {
			t.Fatalf("step %d fresh: %v", i, err)
		}
		cached, err := run(StratAR, Options{Request: Request{Shape: st.shape, MsgBytes: 240, Seed: 2, Shards: st.shards, Check: true}, Cache: cache})
		if err != nil {
			t.Fatalf("step %d cached: %v", i, err)
		}
		if !reflect.DeepEqual(fresh, cached) {
			t.Errorf("step %d (%v shards=%d): cached run diverged:\nfresh:  %+v\ncached: %+v",
				i, st.shape, st.shards, fresh, cached)
		}
	}
}

// TestNetCacheCheckToggle ensures Check participates in the cache key: a
// network built without the checker must not be recycled for a checked run
// (Params.Check differs), and vice versa.
func TestNetCacheCheckToggle(t *testing.T) {
	cache := &NetCache{}
	shape := torus.New(4, 2, 1)
	if _, err := run(StratAR, Options{Request: Request{Shape: shape, MsgBytes: 64, Seed: 2}, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if cache.nw.Par.Check {
		t.Fatal("unchecked run cached a checked network")
	}
	if _, err := run(StratAR, Options{Request: Request{Shape: shape, MsgBytes: 64, Seed: 2, Check: true}, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if !cache.nw.Par.Check {
		t.Fatal("checked run recycled the unchecked network (stale cache key)")
	}
}

// TestNetCacheCrossParams drives one cache through a parameter sweep -
// credit delay, coalescing, invariant checking - on a fixed shape. The
// structural-reuse branch of Options.network must recycle the cached
// network via ResetParams (same machine, re-derived engine state) and
// still match a fresh build byte for byte.
func TestNetCacheCrossParams(t *testing.T) {
	shape := torus.New(4, 4, 2)
	base := network.DefaultParams()
	longCredit := base
	longCredit.CreditDelay = 60
	checked := base
	checked.Check = true
	params := []network.Params{base, longCredit, checked, base}

	cache := &NetCache{}
	var recycled *network.Network
	for i, par := range params {
		fresh, err := run(StratAR, Options{Request: Request{Shape: shape, MsgBytes: 240, Seed: 7}, Par: par})
		if err != nil {
			t.Fatalf("params %d fresh: %v", i, err)
		}
		cached, err := run(StratAR, Options{Request: Request{Shape: shape, MsgBytes: 240, Seed: 7}, Par: par, Cache: cache})
		if err != nil {
			t.Fatalf("params %d cached: %v", i, err)
		}
		if !reflect.DeepEqual(fresh, cached) {
			t.Errorf("params %d: cached run diverged from fresh run\nfresh:  %+v\ncached: %+v",
				i, fresh, cached)
		}
		if i == 0 {
			recycled = cache.nw
		} else if cache.nw != recycled {
			t.Fatalf("params %d: cache rebuilt the network instead of recycling (structure unchanged)", i)
		}
	}

	// A buffer-structure change must fall back to allocation.
	bigger := base
	bigger.VCBytes *= 2
	if _, err := run(StratAR, Options{Request: Request{Shape: shape, MsgBytes: 240, Seed: 7}, Par: bigger, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if cache.nw == recycled {
		t.Fatal("VCBytes change recycled a structurally incompatible network")
	}
}
