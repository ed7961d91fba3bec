package network

import (
	"fmt"
	"math/rand"
	"testing"

	"alltoall/internal/torus"
)

// BenchmarkSimulatorHops measures raw simulation throughput in packet-hops
// per second on a saturated 8x8x4 all-to-all-like workload.
func BenchmarkSimulatorHops(b *testing.B) {
	b.ReportAllocs()
	var totalHops int64
	for i := 0; i < b.N; i++ {
		shape := torus.New(8, 8, 4)
		p := shape.P()
		srcs := make([]Source, p)
		for n := 0; n < p; n++ {
			srcs[n] = &allToAllSource{self: int32(n), p: int32(p), size: 256}
		}
		nw, err := New(shape, DefaultParams(), srcs, countOnly{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := nw.Run(1 << 42); err != nil {
			b.Fatal(err)
		}
		// Approximate hops: grants are one per link traversal.
		st := nw.Stats()
		totalHops += st.GrantsByVC[0] + st.GrantsByVC[1] + st.GrantsByVC[2]
	}
	b.ReportMetric(float64(totalHops)/b.Elapsed().Seconds(), "hops/s")
}

// BenchmarkNetworkRun measures end-to-end run throughput when the network
// is recycled with Reset between runs (the sweep engine's hot path): one
// allocation-free simulation per iteration.
func BenchmarkNetworkRun(b *testing.B) {
	benchNetworkRun(b, false)
}

// BenchmarkNetworkRunChecked is the same workload with the runtime invariant
// checker on; the ratio to BenchmarkNetworkRun is the checker's cost
// (measured ~1.4x - every event re-audits the dispatched node's router).
func BenchmarkNetworkRunChecked(b *testing.B) {
	benchNetworkRun(b, true)
}

func benchNetworkRun(b *testing.B, check bool) {
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
	spec := RunSpec{MaxTime: 1 << 42, Shards: 1, Check: check}
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

// BenchmarkNetworkRunSharded measures the same recycled run on the
// window-parallel engine at several shard counts (shards=1 is the serial
// baseline). Speedup requires as many free cores as shards; on a single
// core the barrier overhead makes sharding a net loss.
func BenchmarkNetworkRunSharded(b *testing.B) {
	shape := torus.New(8, 8, 8)
	p := shape.P()
	mkSrcs := func() []Source {
		srcs := make([]Source, p)
		for n := 0; n < p; n++ {
			srcs[n] = &allToAllSource{self: int32(n), p: int32(p), size: 256}
		}
		return srcs
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			nw, err := New(shape, DefaultParams(), mkSrcs(), countOnly{})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := nw.RunSharded(RunSpec{MaxTime: 1 << 42, Shards: shards}); err != nil {
				b.Fatal(err)
			}
			var events int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := nw.Reset(mkSrcs(), countOnly{}); err != nil {
					b.Fatal(err)
				}
				if _, _, err := nw.RunSharded(RunSpec{MaxTime: 1 << 42, Shards: shards}); err != nil {
					b.Fatal(err)
				}
				events += nw.Stats().Events()
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkEventHeap measures the raw event queue.
func BenchmarkEventHeap(b *testing.B) {
	b.ReportAllocs()
	var h eventHeap
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1024; i++ {
		h.push(event{t: rng.Int63n(1 << 20)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := h.pop()
		e.t += int64(i % 4096)
		h.push(e)
	}
}

// TestRandomTrafficConservation is a property test: arbitrary small shapes
// with arbitrary random point-to-point traffic always complete and deliver
// every packet exactly once.
func TestRandomTrafficConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		dims := [3]int{1 + rng.Intn(6), 1 + rng.Intn(6), 1 + rng.Intn(4)}
		shape := torus.NewMesh(dims[0], dims[1], dims[2],
			rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0)
		if shape.Validate() != nil {
			continue
		}
		p := shape.P()
		srcs := make([]Source, p)
		want := make([]int64, p)
		for n := 0; n < p; n++ {
			count := rng.Intn(20)
			specs := make([]PacketSpec, 0, count)
			for i := 0; i < count; i++ {
				d := rng.Intn(p)
				if d == n {
					continue
				}
				size := int32(64 + 32*rng.Intn(7))
				det := rng.Intn(2) == 0
				specs = append(specs, PacketSpec{Dst: int32(d), Size: size, Det: det, Class: int8(rng.Intn(60))})
				want[d]++
			}
			srcs[n] = &listSource{specs: specs}
		}
		h := newCountHandler(p)
		nw, err := New(shape, DefaultParams(), srcs, h)
		if err != nil {
			t.Fatalf("trial %d shape %v: %v", trial, shape, err)
		}
		if _, err := nw.Run(1 << 40); err != nil {
			t.Fatalf("trial %d shape %v: %v", trial, shape, err)
		}
		for n := 0; n < p; n++ {
			if h.perNode[n] != want[n] {
				t.Fatalf("trial %d shape %v node %d: got %d packets, want %d",
					trial, shape, n, h.perNode[n], want[n])
			}
		}
	}
}
