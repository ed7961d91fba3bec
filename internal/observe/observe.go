// Package observe turns the simulator's mechanisms into measurable time
// series: per-link and per-VC traffic bucketed into configurable windows,
// injection/reception FIFO depth high-watermarks, per-node CPU busy time,
// and a head-of-line-blocking counter that attributes lost arbitration
// cycles to the saturated dimension causing them. It is the measurement
// side of the paper's Section 5 diagnosis - adaptive routing on asymmetric
// tori loses throughput because Y/Z dynamic-VC packets head-of-line block
// behind saturated X links - which end-to-end percent-of-peak numbers can
// state but not attribute.
//
// A Collector implements network.Observer. Install one per run (or per
// sweep; counters accumulate across runs on the same shape until Reset):
//
//	obs := observe.New(observe.Config{})
//	res, err := collective.Run(ctx, collective.Options{
//		Request:  collective.Request{Strategy: collective.StratAR, Shape: shape, MsgBytes: 1024},
//		Observer: obs})
//	fmt.Println(res.Observed.SaturatedDim, res.Observed.HoLBlocked)
//
// Collectors are shard-aware: each engine shard records into its own sink
// (no locks on the hot path), and per-shard state folds into run totals in
// shard order when the run completes, so sharded runs aggregate
// deterministically - a Summary and trace are byte-identical at any shard
// count. A Collector must not be shared between concurrent runs.
package observe

import (
	"alltoall/internal/network"
	"alltoall/internal/torus"
)

// SchemaVersion identifies the machine-readable layout of Summary and of
// the trace JSONL records (see WriteTrace). Bump on any breaking change to
// field names or semantics.
const SchemaVersion = 1

// DefaultWindow is the trace bucket width a zero Config.Window selects.
const DefaultWindow = 4096

// The head-of-line thresholds. Both must hold at once for a blocked pass to
// count toward HoLBlocked, so a false positive requires a balanced machine
// to exceed its measured extremes in two dimensions simultaneously.
const (
	// HoLDelay is the minimum time a packet must have been continuously
	// blocked before its lost arbitration passes count toward HoLBlocked.
	// Transient arbitration losses are the normal operating mode of a
	// saturated torus - on a symmetric machine under full adaptive-routing
	// load, cross-dimension blocks routinely persist for thousands of
	// units before the escape channel or a freed link clears them. 16384
	// (the time to serialize 64 maximum-size packets on a link) sits above
	// everything a balanced machine produces: measured on an 8x8x8 AR
	// all-to-all no block survives that long, while on 16x8x8 tens of
	// thousands do. A packet stalled past this bar is structurally, not
	// transiently, blocked.
	HoLDelay = 16384

	// HoLMinQueue is the minimum occupancy of the blocked packet's queue
	// for the pass to count: head-of-line blocking needs victims - packets
	// stacked behind the stuck head that its stall is also holding up. 16
	// again clears the balanced machine's maximum (31-deep transients occur
	// on 8x8x8, but never simultaneously with a mature block).
	HoLMinQueue = 16
)

// Config tunes a Collector.
type Config struct {
	// Window is the bucket width, in time units, of the windowed series
	// (per-dimension/per-VC traffic, HoL events, CPU busy, FIFO
	// high-watermarks). Default DefaultWindow.
	Window int64
}

func (c Config) fill() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	return c
}

// Collector gathers observability counters for one simulated machine. The
// zero value is not ready; use New.
type Collector struct {
	cfg   Config
	shape torus.Shape
	p     int
	bound bool

	runs   int
	finish int64 // accumulated finish time across completed runs

	// Node-partitioned state, written directly by the owning shard's sink
	// (shards own disjoint node ranges, so there are no write conflicts).
	linkVC []vcBytes // [node*NumDirs+dir] wire bytes granted, per VC
	injHW  []int32   // [node] injection FIFO byte high-watermark
	recvHW []int32   // [node] reception FIFO byte high-watermark
	cpu    []int64   // [node] CPU busy time

	// Canonical windowed series and scalar counters, folded from the
	// per-shard sinks in shard order at EndRun.
	win windows

	// Fault aggregates (see fault.go): transition count, degrade count, peak
	// concurrently-dead links, and total and per-window dead-link ticks.
	faultEvents   int64
	degradeEvents int64
	peakDead      int
	deadLinkTicks int64
	deadWin       []int64
	ftrans        []faultPoint    // per-run fold scratch
	openDown      map[int32]int64 // per-run open outage intervals

	sinks []*sink
}

type vcBytes [network.NumVC]int64

// windows holds the window-indexed series plus the scalar counters that
// accompany them; one instance per sink plus the canonical merged one.
type windows struct {
	byDim [torus.NumDims][]int64 // wire bytes granted per window, per dimension
	byVC  [network.NumVC][]int64 // wire bytes granted per window, per VC
	hol   []int64                // head-of-line-blocked arbitration passes per window
	cpu   []int64                // CPU busy time charged per window

	holMat     [torus.NumDims][torus.NumDims]int64 // [occupied-VC dim][wanted dim] mature blocks
	holBlocked int64                               // cross-dimension mature blocks with victims queued behind
	injBlocked int64                               // blocked passes of injection-FIFO head packets

	// faults collects this run's link transitions (fault.go); excluded from
	// merge - EndRun folds them into intervals via foldFaults instead.
	faults []faultPoint
}

// New returns a Collector with the given configuration (zero value for
// defaults). The collector binds to a machine shape on first use and may be
// reused across runs on that shape; Reset clears it for a different one.
func New(cfg Config) *Collector {
	return &Collector{cfg: cfg.fill()}
}

// Window returns the configured bucket width in time units.
func (c *Collector) Window() int64 { return c.cfg.Window }

// Shape returns the machine shape the collector is bound to (zero Shape
// before the first run).
func (c *Collector) Shape() torus.Shape { return c.shape }

// Runs returns the number of completed runs folded into the collector.
func (c *Collector) Runs() int { return c.runs }

// Finish returns the total simulated time observed: the sum of the finish
// times of all completed runs (multi-phase strategies contribute one run
// per phase).
func (c *Collector) Finish() int64 { return c.finish }

// Reset clears all counters and the shape binding, keeping allocations.
func (c *Collector) Reset() {
	c.bound = false
	c.runs = 0
	c.finish = 0
	for i := range c.linkVC {
		c.linkVC[i] = vcBytes{}
	}
	for i := range c.injHW {
		c.injHW[i] = 0
	}
	for i := range c.recvHW {
		c.recvHW[i] = 0
	}
	for i := range c.cpu {
		c.cpu[i] = 0
	}
	c.win.reset()
	for _, s := range c.sinks {
		s.win.reset()
	}
	c.faultEvents = 0
	c.degradeEvents = 0
	c.peakDead = 0
	c.deadLinkTicks = 0
	c.deadWin = c.deadWin[:0]
}

func (w *windows) reset() {
	for d := range w.byDim {
		w.byDim[d] = w.byDim[d][:0]
	}
	for v := range w.byVC {
		w.byVC[v] = w.byVC[v][:0]
	}
	w.hol = w.hol[:0]
	w.cpu = w.cpu[:0]
	w.holMat = [torus.NumDims][torus.NumDims]int64{}
	w.holBlocked = 0
	w.injBlocked = 0
	w.faults = w.faults[:0]
}

// BeginRun implements network.Observer. A collector bound to a different
// shape is reset to the new one (counters cannot meaningfully accumulate
// across machines).
func (c *Collector) BeginRun(shape torus.Shape, _ network.Params) {
	if c.bound && shape == c.shape {
		return
	}
	c.Reset()
	c.bound = true
	c.shape = shape
	c.p = shape.P()
	if need := c.p * network.NumDirs; len(c.linkVC) < need {
		c.linkVC = make([]vcBytes, need)
	}
	if len(c.injHW) < c.p {
		c.injHW = make([]int32, c.p)
		c.recvHW = make([]int32, c.p)
		c.cpu = make([]int64, c.p)
	}
}

// Sink implements network.Observer.
func (c *Collector) Sink(shard, shards int, lo, hi int32) network.Sink {
	for len(c.sinks) <= shard {
		c.sinks = append(c.sinks, &sink{c: c})
	}
	return c.sinks[shard]
}

// EndRun implements network.Observer: folds every shard sink into the
// canonical series in shard order, leaving the sinks empty for the next
// run. Addition and max are order-independent, so the fold is deterministic
// at any shard count.
func (c *Collector) EndRun(finish int64) {
	c.runs++
	c.finish += finish
	c.foldFaults(finish)
	for _, s := range c.sinks {
		c.win.merge(&s.win)
		s.win.reset()
	}
}

func (w *windows) merge(o *windows) {
	for d := range w.byDim {
		w.byDim[d] = addSeries(w.byDim[d], o.byDim[d])
	}
	for v := range w.byVC {
		w.byVC[v] = addSeries(w.byVC[v], o.byVC[v])
	}
	w.hol = addSeries(w.hol, o.hol)
	w.cpu = addSeries(w.cpu, o.cpu)
	for i := range w.holMat {
		for j := range w.holMat[i] {
			w.holMat[i][j] += o.holMat[i][j]
		}
	}
	w.holBlocked += o.holBlocked
	w.injBlocked += o.injBlocked
}

func addSeries(dst, src []int64) []int64 {
	for len(dst) < len(src) {
		dst = append(dst, 0)
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// sink is one engine shard's private recording surface. Hot-path methods
// touch only this sink's windows and the collector's node-partitioned
// arrays at nodes the shard owns, so no synchronization is needed.
type sink struct {
	c   *Collector
	win windows
}

func growI64(s []int64, idx int) []int64 {
	for len(s) <= idx {
		s = append(s, 0)
	}
	return s
}

// OnGrant implements network.Sink.
func (s *sink) OnGrant(now int64, node int32, dir int, vc int8, size int32) {
	s.c.linkVC[int(node)*network.NumDirs+dir][vc] += int64(size)
	idx := int(now / s.c.cfg.Window)
	d := dir / 2
	s.win.byDim[d] = growI64(s.win.byDim[d], idx)
	s.win.byDim[d][idx] += int64(size)
	s.win.byVC[vc] = growI64(s.win.byVC[vc], idx)
	s.win.byVC[vc][idx] += int64(size)
}

// wantDim returns the single torus dimension a desire bitmask points at, or
// -1 when the packet still has a choice (blocks with an escape hatch are
// not attributable to one saturated resource).
func wantDim(want uint8) int {
	d := -1
	for dir := 0; dir < network.NumDirs; dir++ {
		if want&(1<<dir) == 0 {
			continue
		}
		if d >= 0 && d != dir/2 {
			return -1
		}
		d = dir / 2
	}
	return d
}

// OnBlocked implements network.Sink. Every blocked pass of a dynamic-VC
// packet whose remaining route needs exactly one dimension lands in the
// [occupied-VC dimension][wanted dimension] matrix - the census of who
// waits for whom. The headline HoLBlocked counter demands the full
// head-of-line pathology: a cross-dimension block (the packet ties down a
// VC of a dimension it no longer travels) that is structural (blocked
// beyond HoLDelay) with real victims (at least HoLMinQueue packets stacked
// in its queue) - the paper's "Y/Z dynamic VCs blocked behind saturated X
// links", made countable. See the constants for how the thresholds were
// calibrated to be exactly zero on a balanced machine.
func (s *sink) OnBlocked(now int64, node int32, inDir, vc int8, want uint8, since int64, qCount, win int32) {
	if vc < 0 {
		s.win.injBlocked++
		return
	}
	if vc != network.VCDyn0 && vc != network.VCDyn1 {
		return
	}
	wd := wantDim(want)
	if wd < 0 {
		return
	}
	id := int(inDir) / 2
	s.win.holMat[id][wd]++
	if id != wd && now-since >= HoLDelay && qCount >= HoLMinQueue {
		s.win.holBlocked++
		idx := int(now / s.c.cfg.Window)
		s.win.hol = growI64(s.win.hol, idx)
		s.win.hol[idx]++
	}
}

// OnInjFIFO implements network.Sink.
func (s *sink) OnInjFIFO(node int32, fifo int, bytes int32) {
	if bytes > s.c.injHW[node] {
		s.c.injHW[node] = bytes
	}
}

// OnRecvFIFO implements network.Sink.
func (s *sink) OnRecvFIFO(node int32, bytes int32) {
	if bytes > s.c.recvHW[node] {
		s.c.recvHW[node] = bytes
	}
}

// OnCPU implements network.Sink.
func (s *sink) OnCPU(now int64, node int32, cost int64) {
	s.c.cpu[node] += cost
	idx := int(now / s.c.cfg.Window)
	s.win.cpu = growI64(s.win.cpu, idx)
	s.win.cpu[idx] += cost
}
