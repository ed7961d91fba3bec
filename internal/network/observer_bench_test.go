package network

import (
	"testing"

	"alltoall/internal/torus"
)

// nullSink is the cheapest possible observer: empty hooks. The delta
// between BenchmarkNetworkRunObserved and BenchmarkNetworkRun is the pure
// hook-dispatch cost; the delta between BenchmarkNetworkRun before and
// after the observer hooks were added (nil observer) must be noise.
type nullSink struct{}

func (nullSink) OnGrant(now int64, node int32, dir int, vc int8, size int32) {}
func (nullSink) OnBlocked(now int64, node int32, inDir, vc int8, want uint8, since int64, qCount, win int32) {
}
func (nullSink) OnInjFIFO(node int32, fifo int, bytes int32) {}
func (nullSink) OnRecvFIFO(node int32, bytes int32)          {}
func (nullSink) OnCPU(now int64, node int32, cost int64)     {}

type nullObserver struct{}

func (nullObserver) BeginRun(shape torus.Shape, par Params) {}
func (nullObserver) Sink(shard, shards int, lo, hi int32) Sink {
	return nullSink{}
}
func (nullObserver) EndRun(finish int64) {}

// BenchmarkNetworkRunObserved is BenchmarkNetworkRun's workload with an
// empty observer installed: the cost of taking every hook call with no
// recording behind it.
func BenchmarkNetworkRunObserved(b *testing.B) {
	b.ReportAllocs()
	shape := torus.New(8, 8, 4)
	p := shape.P()
	mkSrcs := func() []Source {
		srcs := make([]Source, p)
		for n := 0; n < p; n++ {
			srcs[n] = &allToAllSource{self: int32(n), p: int32(p), size: 256}
		}
		return srcs
	}
	nw, err := New(shape, DefaultParams(), mkSrcs(), countOnly{})
	if err != nil {
		b.Fatal(err)
	}
	spec := RunSpec{MaxTime: 1 << 42, Shards: 1, Observer: nullObserver{}}
	if _, _, err := nw.RunSharded(spec); err != nil {
		b.Fatal(err)
	}
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nw.Reset(mkSrcs(), countOnly{}); err != nil {
			b.Fatal(err)
		}
		if _, _, err := nw.RunSharded(spec); err != nil {
			b.Fatal(err)
		}
		events += nw.Stats().Events()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// TestNilObserverSteadyStateAllocs guards the zero-cost-when-off contract
// at the allocation level: with no observer installed, a warmed Reset+Run
// cycle on the serial engine performs no heap allocations at all - the
// nil-observer branches must not cause the compiler to heap-allocate
// anything on the hot path.
func TestNilObserverSteadyStateAllocs(t *testing.T) {
	shape := torus.New(4, 4, 4)
	p := shape.P()
	srcs := shardTraffic(p, 11)
	h := newShardCountHandler(p)
	nw, err := New(shape, DefaultParams(), srcs, h)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		for _, s := range srcs {
			if s != nil {
				s.(*listSource).i = 0
			}
		}
		h.reset()
		if err := nw.Reset(srcs, h); err != nil {
			t.Fatal(err)
		}
		if _, err := nw.Run(1 << 40); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm pools
	run()
	if avg := testing.AllocsPerRun(10, run); avg > 0 {
		t.Errorf("steady-state serial run with nil observer allocates %.1f times per run, want 0", avg)
	}
}
