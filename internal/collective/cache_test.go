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

// TestNetCacheCheckToggle: the checker (and the fault schedule) are per-run
// settings, not part of the machine, so a checked run recycles the cached
// unchecked network - the same *Network - and still equals a fresh checked
// run; a checked faulted run and a plain run after it recycle it too, each
// equal to its fresh twin.
func TestNetCacheCheckToggle(t *testing.T) {
	cache := &NetCache{}
	shape := torus.New(4, 2, 1)
	var recycled *network.Network
	for i, req := range []Request{
		{Shape: shape, MsgBytes: 64, Seed: 2},
		{Shape: shape, MsgBytes: 64, Seed: 2, Check: true},
		{Shape: shape, MsgBytes: 64, Seed: 2, Check: true, Faults: "0:1:+x:kill"},
		{Shape: shape, MsgBytes: 64, Seed: 2},
	} {
		fresh, err := run(StratAR, Options{Request: req})
		if err != nil {
			t.Fatal(err)
		}
		cached, err := run(StratAR, Options{Request: req, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, cached) {
			t.Errorf("run %d (check=%v faults=%q): cached run diverged from fresh run\nfresh:  %+v\ncached: %+v",
				i, req.Check, req.Faults, fresh, cached)
		}
		if (fresh.DeadLinkTicks > 0) != (req.Faults != "") {
			t.Errorf("run %d: DeadLinkTicks %d with faults %q", i, fresh.DeadLinkTicks, req.Faults)
		}
		if i == 0 {
			recycled = cache.nw
		} else if cache.nw != recycled {
			t.Fatalf("run %d (check=%v faults=%q): cache rebuilt the network instead of recycling it",
				i, req.Check, req.Faults)
		}
	}
}

// TestNetCacheCrossParams: the machine parameters are the network, so a
// change to CreditDelay (runtime behaviour) or VCBytes (buffer structure)
// rebuilds it, and every run still equals a fresh one.
func TestNetCacheCrossParams(t *testing.T) {
	shape := torus.New(4, 4, 2)
	base := network.DefaultParams()
	longCredit := base
	longCredit.CreditDelay = 60
	bigger := base
	bigger.VCBytes *= 2
	cache := &NetCache{}
	var last *network.Network
	for i, par := range []network.Params{base, longCredit, bigger, base} {
		req := Request{Shape: shape, MsgBytes: 240, Seed: 7}
		fresh, err := run(StratAR, Options{Request: req, Par: par})
		if err != nil {
			t.Fatalf("params %d fresh: %v", i, err)
		}
		cached, err := run(StratAR, Options{Request: req, Par: par, Cache: cache})
		if err != nil {
			t.Fatalf("params %d cached: %v", i, err)
		}
		if !reflect.DeepEqual(fresh, cached) {
			t.Errorf("params %d: cached run diverged from fresh run\nfresh:  %+v\ncached: %+v",
				i, fresh, cached)
		}
		if cache.nw == last {
			t.Errorf("params %d: a parameter change recycled the previous network", i)
		}
		last = cache.nw
	}
}
