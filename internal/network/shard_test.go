package network

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"alltoall/internal/parallel"
	"alltoall/internal/torus"
)

// shardCountHandler is a shard-safe delivery handler: all state is indexed
// by the receiving node, which is always processed by the worker owning it.
// Packets carrying a non-negative Aux different from the receiving node are
// software-forwarded there (exercising the pendingFw path across shards).
type shardCountHandler struct {
	perNode []int64
	bytes   []int64
}

func newShardCountHandler(p int) *shardCountHandler {
	return &shardCountHandler{perNode: make([]int64, p), bytes: make([]int64, p)}
}

func (h *shardCountHandler) OnDeliver(d Delivered, fw []PacketSpec) ([]PacketSpec, int64, bool) {
	h.perNode[d.Node]++
	h.bytes[d.Node] += int64(d.Size)
	if d.Aux >= 0 && d.Aux != d.Node {
		return append(fw, PacketSpec{Dst: d.Aux, Size: d.Size, Payload: d.Payload, Aux: -1, Kind: 1}), 0, false
	}
	return fw, 0, true
}

func (h *shardCountHandler) reset() {
	for i := range h.perNode {
		h.perNode[i] = 0
		h.bytes[i] = 0
	}
}

// shardTraffic builds a deterministic random workload: a mix of direct and
// two-hop (software-forwarded) packets, adaptive and deterministic routing,
// several sizes and FIFO classes.
func shardTraffic(p int, seed int64) []Source {
	rng := rand.New(rand.NewSource(seed))
	srcs := make([]Source, p)
	for n := 0; n < p; n++ {
		count := rng.Intn(24)
		specs := make([]PacketSpec, 0, count)
		for i := 0; i < count; i++ {
			d := rng.Intn(p)
			if d == n {
				continue
			}
			spec := PacketSpec{
				Dst:   int32(d),
				Size:  int32(64 + 32*rng.Intn(7)),
				Aux:   -1,
				Det:   rng.Intn(3) == 0,
				Class: int8(rng.Intn(60)),
			}
			if fin := rng.Intn(p); rng.Intn(3) == 0 && fin != d {
				spec.Aux = int32(fin) // deliver at d, then forward to fin
			}
			specs = append(specs, spec)
		}
		if len(specs) > 0 {
			srcs[n] = &listSource{specs: specs}
		}
	}
	return srcs
}

// grantWindows is an Observer whose sinks add each grant's wire bytes to the
// window of the given width it starts in: a windowed link-utilization series
// read through the Sink seam. Each engine gets its own sink (no locking);
// series folds them, and the fold must not depend on the shard count.
type grantWindows struct {
	width int64
	sinks []*windowSink
}

type windowSink struct {
	countSink // the callbacks this sink does not window
	width     int64
	bytes     []int64
}

func (o *grantWindows) BeginRun(torus.Shape, Params) { o.sinks = o.sinks[:0] }
func (o *grantWindows) EndRun(int64)                 {}
func (o *grantWindows) Sink(shard, shards int, lo, hi int32) Sink {
	s := &windowSink{width: o.width}
	o.sinks = append(o.sinks, s)
	return s
}

func (o *grantWindows) series() []int64 {
	var out []int64
	for _, s := range o.sinks {
		for len(out) < len(s.bytes) {
			out = append(out, 0)
		}
		for w, b := range s.bytes {
			out[w] += b
		}
	}
	return out
}

func (s *windowSink) OnGrant(now int64, node int32, dir int, vc int8, size int32) {
	for int64(len(s.bytes)) <= now/s.width {
		s.bytes = append(s.bytes, 0)
	}
	s.bytes[now/s.width] += int64(size)
}

func shardTestShapes() []torus.Shape {
	return []torus.Shape{
		torus.New(4, 4, 4),                         // symmetric torus
		torus.New(8, 4, 2),                         // asymmetric torus
		torus.NewMesh(5, 3, 4, false, true, false), // odd mesh/torus mix
		torus.New(16, 1, 1),                        // degenerate ring
	}
}

// TestShardedMatchesSerial checks that every statistic of a sharded run -
// and therefore anything rendered from it - and the windowed grant bytes an
// observer collects are byte-identical to a one-engine run's, for every
// tested shard count, on symmetric and asymmetric shapes including meshes.
func TestShardedMatchesSerial(t *testing.T) {
	par := DefaultParams()
	for _, shape := range shardTestShapes() {
		p := shape.P()
		hSerial := newShardCountHandler(p)
		ref, err := New(shape, par, shardTraffic(p, 42), hSerial)
		if err != nil {
			t.Fatalf("shape %v: %v", shape, err)
		}
		refWin := &grantWindows{width: 2048}
		ref.SetObserver(refWin)
		refFin, err := ref.Run(1 << 40)
		if err != nil {
			t.Fatalf("shape %v serial: %v", shape, err)
		}
		if len(refWin.series()) < 2 {
			t.Fatalf("shape %v: the run spans %d grant windows: the comparison is vacuous", shape, len(refWin.series()))
		}
		for _, shards := range []int{1, 2, 4, 7} {
			h := newShardCountHandler(p)
			nw, err := New(shape, par, shardTraffic(p, 42), h)
			if err != nil {
				t.Fatalf("shape %v: %v", shape, err)
			}
			win := &grantWindows{width: 2048}
			nw.SetObserver(win)
			fin, err := nw.RunSharded(1<<40, shards)
			if err != nil {
				t.Fatalf("shape %v shards=%d: %v", shape, shards, err)
			}
			if fin != refFin {
				t.Errorf("shape %v shards=%d: finish %d, serial %d", shape, shards, fin, refFin)
			}
			if !reflect.DeepEqual(win.series(), refWin.series()) {
				t.Errorf("shape %v shards=%d: per-window grant bytes diverge from serial\nserial:  %v\nsharded: %v",
					shape, shards, refWin.series(), win.series())
			}
			if !reflect.DeepEqual(nw.Stats(), ref.Stats()) {
				t.Errorf("shape %v shards=%d: stats diverge from serial\nserial:  %+v\nsharded: %+v",
					shape, shards, ref.Stats(), nw.Stats())
			}
			if !reflect.DeepEqual(h, hSerial) {
				t.Errorf("shape %v shards=%d: handler observations diverge from serial", shape, shards)
			}
		}
	}
}

// TestShardedResetRecycles checks that Reset fully recycles the engines:
// repeated runs on one network - including a change of shard count in
// between - reproduce the one-engine result exactly.
func TestShardedResetRecycles(t *testing.T) {
	shape := torus.New(4, 4, 4)
	p := shape.P()
	par := DefaultParams()

	hSerial := newShardCountHandler(p)
	ref, err := New(shape, par, shardTraffic(p, 7), hSerial)
	if err != nil {
		t.Fatal(err)
	}
	refWin := &grantWindows{width: 2048}
	ref.SetObserver(refWin)
	refFin, err := ref.Run(1 << 40)
	if err != nil {
		t.Fatal(err)
	}

	h := newShardCountHandler(p)
	nw, err := New(shape, par, shardTraffic(p, 7), h)
	if err != nil {
		t.Fatal(err)
	}
	win := &grantWindows{width: 2048}
	nw.SetObserver(win) // survives Reset; BeginRun starts each run's series afresh
	for run, shards := range []int{4, 2, 4, 1, 4} {
		if run > 0 {
			h.reset()
			if err := nw.Reset(shardTraffic(p, 7), h); err != nil {
				t.Fatal(err)
			}
		}
		fin, err := nw.RunSharded(1<<40, shards)
		if err != nil {
			t.Fatalf("run %d shards=%d: %v", run, shards, err)
		}
		if fin != refFin {
			t.Errorf("run %d shards=%d: finish %d, serial %d", run, shards, fin, refFin)
		}
		if !reflect.DeepEqual(nw.Stats(), ref.Stats()) {
			t.Errorf("run %d shards=%d: stats diverge from serial", run, shards)
		}
		if !reflect.DeepEqual(win.series(), refWin.series()) {
			t.Errorf("run %d shards=%d: per-window grant bytes diverge from serial", run, shards)
		}
		if !reflect.DeepEqual(h, hSerial) {
			t.Errorf("run %d shards=%d: handler observations diverge", run, shards)
		}
	}
}

// TestShardedSteadyStateAllocs guards the cached-run property: once warmed,
// a Reset + sharded run cycle performs no per-run heap allocations beyond
// goroutine bookkeeping (bounded by the shard count).
func TestShardedSteadyStateAllocs(t *testing.T) {
	const shards = 4
	shape := torus.New(4, 4, 4)
	p := shape.P()
	srcs := shardTraffic(p, 11)
	h := newShardCountHandler(p)
	nw, err := New(shape, DefaultParams(), srcs, h)
	if err != nil {
		t.Fatal(err)
	}
	rewind := func() {
		for _, s := range srcs {
			if s != nil {
				s.(*listSource).i = 0
			}
		}
		h.reset()
	}
	run := func() {
		rewind()
		if err := nw.Reset(srcs, h); err != nil {
			t.Fatal(err)
		}
		if _, err := nw.RunSharded(1<<40, shards); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: builds shard engines, grows pools and mailboxes
	run()
	if avg := testing.AllocsPerRun(10, run); avg > shards {
		t.Errorf("steady-state sharded run allocates %.1f times per run, want <= %d", avg, shards)
	}
}

// autoRun runs shardTraffic on shape with the shard count left to the engine
// and returns the count it chose.
func autoRun(t *testing.T, shape torus.Shape) int {
	t.Helper()
	p := shape.P()
	nw, err := New(shape, DefaultParams(), shardTraffic(p, 42), newShardCountHandler(p))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.RunSharded(1<<40, 0); err != nil {
		t.Fatalf("%v auto: %v", shape, err)
	}
	return nw.SyncStats().Shards
}

// TestAutoShardPolicy pins what RunSharded(_, 0) decides: one engine below
// 128 nodes however many cores idle, one engine when the cores are taken,
// min(GOMAXPROCS, max(2, P/128), 8) for a run of 128 nodes or more alone -
// and that a forced count ignores all of it.
func TestAutoShardPolicy(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	plane2 := torus.NewMesh(8, 8, 2, true, true, false) // 8x8x2M, 128 nodes: the floor
	cube, slab := torus.New(8, 8, 8), torus.New(8, 8, 16)
	for _, c := range []struct {
		procs int
		shape torus.Shape
		want  int
	}{
		{16, torus.New(4, 4, 4), 1}, // 64 nodes: below the floor
		{1, plane2, 1},
		{2, plane2, 2},
		{16, plane2, 2},             // at least two from the floor up
		{16, torus.New(8, 8, 4), 2}, // 256 nodes
		{1, cube, 1},
		{2, cube, 2},
		{3, cube, 3},
		{16, cube, 4}, // P/128
		{6, slab, 6},
		{16, slab, 8}, // P/128 = the cap
	} {
		runtime.GOMAXPROCS(c.procs)
		if got := autoRun(t, c.shape); got != c.want {
			t.Errorf("%v alone on %d cores ran %d engines, want %d", c.shape, c.procs, got, c.want)
		}
		if n := parallel.CoresInUse(); n != 0 {
			t.Fatalf("%d engine cores registered after the run", n)
		}
	}

	runtime.GOMAXPROCS(4)
	parallel.UseCores(3) // somebody else's engines
	if got := autoRun(t, cube); got != 1 {
		t.Errorf("8x8x8 with 1 core of 4 free ran %d engines, want 1", got)
	}
	parallel.UseCores(5)
	if got := autoRun(t, cube); got != 1 {
		t.Errorf("8x8x8 with the cores oversubscribed ran %d engines, want 1", got)
	}
	nw, err := New(cube, DefaultParams(), shardTraffic(cube.P(), 42), newShardCountHandler(cube.P()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.RunSharded(1<<40, 3); err != nil {
		t.Fatal(err)
	}
	if got := nw.SyncStats().Shards; got != 3 {
		t.Errorf("a forced 3 with the cores oversubscribed ran %d engines", got)
	}
	parallel.ReleaseCores(8)
	if n := parallel.CoresInUse(); n != 0 {
		t.Fatalf("%d engine cores registered at the end", n)
	}
}

// TestAutoShardReleasesCores: the process-wide count is back at zero after
// an auto-sharded run that overruns maxTime, one that is cancelled, and
// eight concurrent ones, which between them never hold more than one core
// per run plus the idle ones.
func TestAutoShardReleasesCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	shape := torus.New(8, 8, 8)
	p := shape.P()
	fresh := func() *Network {
		nw, err := New(shape, DefaultParams(), shardTraffic(p, 42), newShardCountHandler(p))
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	if _, err := fresh().RunSharded(100, 0); !errors.Is(err, ErrMaxTime) {
		t.Fatalf("err = %v, want ErrMaxTime", err)
	}
	if n := parallel.CoresInUse(); n != 0 {
		t.Errorf("%d engine cores registered after ErrMaxTime", n)
	}
	nw := fresh()
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	nw.SetContext(gone)
	if _, err := nw.RunSharded(1<<40, 0); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if n := parallel.CoresInUse(); n != 0 {
		t.Errorf("%d engine cores registered after a cancelled run", n)
	}

	const runs = 8
	engines := make([]int, runs)
	var wg sync.WaitGroup
	wg.Add(runs)
	for i := 0; i < runs; i++ {
		nw := fresh()
		go func() {
			defer wg.Done()
			if _, err := nw.RunSharded(1<<40, 0); err != nil {
				t.Errorf("concurrent run %d: %v", i, err)
			}
			engines[i] = nw.SyncStats().Shards
		}()
	}
	wg.Wait()
	if n := parallel.CoresInUse(); n != 0 {
		t.Errorf("%d engine cores registered after %d concurrent runs", n, runs)
	}
	for i, e := range engines {
		if e < 1 || e > 4 {
			t.Errorf("concurrent run %d ran %d engines on 4 cores", i, e)
		}
	}
}
