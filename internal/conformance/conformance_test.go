package conformance

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"alltoall/internal/collective"
	"alltoall/internal/network"
	"alltoall/internal/torus"
)

// msgBytes is the per-pair payload for conformance runs: not a multiple of
// the packet granule, so every run exercises the packetizer's padding path.
const msgBytes = 240

// full reports whether the expanded matrix was requested (CI's conformance
// job sets CONFORMANCE_FULL=1; the default matrix keeps `go test ./...`
// fast).
func full() bool { return os.Getenv("CONFORMANCE_FULL") != "" }

// strategies is the six-strategy suite from the paper (MPI is a calibration
// baseline, not a torus algorithm, and is covered elsewhere).
func strategies() []collective.Strategy {
	return []collective.Strategy{
		collective.StratAR, collective.StratDR, collective.StratThrottle,
		collective.StratTPS, collective.StratVMesh, collective.StratXYZ,
	}
}

// shapeMatrix is the checked-run shape set: symmetric and asymmetric tori
// plus meshes, scaled to keep the default suite quick.
func shapeMatrix() []torus.Shape {
	shapes := []torus.Shape{
		torus.New(4, 4, 4),                          // symmetric torus
		torus.New(8, 4, 2),                          // asymmetric torus
		torus.NewMesh(4, 4, 2, false, false, false), // full mesh
		torus.NewMesh(4, 4, 4, false, true, false),  // mesh/torus mix
	}
	if full() {
		shapes = append(shapes,
			torus.New(8, 8, 4),
			torus.New(8, 4, 4),
			torus.NewMesh(8, 4, 2, true, false, false),
		)
	}
	return shapes
}

// cell is one run of the suite: a strategy on a shape with a
// destination-order seed, split over shards engines, under an optional fault
// schedule (network.ParseFaults syntax), with or without the runtime
// invariant checker.
type cell struct {
	strat  collective.Strategy
	shape  torus.Shape
	shards int
	seed   uint64
	faults string
	check  bool
}

func (c cell) String() string {
	s := fmt.Sprintf("%s on %v shards=%d seed=%d check=%v", c.strat, c.shape, c.shards, c.seed, c.check)
	if c.faults != "" {
		s += fmt.Sprintf(" faults=%q", c.faults)
	}
	return s
}

// memo holds every cell the package has simulated. Each cell runs once, by
// whichever test asks first: the checked one-engine run of a strategy and
// shape is TestCheckedMatrix's reference, TestCoalesceDifferential's
// baseline and TestChaosMatrix's healthy twin, and the seeds
// TestPeakBoundAcrossSeeds bounds are TestRankPermutationInvariance's.
var memo struct {
	sync.Mutex
	runs map[cell]*memoRun
}

type memoRun struct {
	once sync.Once
	res  collective.Result
	err  error
}

// runCell returns c's Result, simulating it on first use and dumping network
// state to $CONFORMANCE_ARTIFACTS if that run fails.
func runCell(t *testing.T, c cell) collective.Result {
	t.Helper()
	memo.Lock()
	if memo.runs == nil {
		memo.runs = make(map[cell]*memoRun)
	}
	m := memo.runs[c]
	if m == nil {
		m = &memoRun{}
		memo.runs[c] = m
	}
	memo.Unlock()
	m.once.Do(func() {
		opts := collective.Options{Request: collective.Request{
			Strategy: c.strat, Shape: c.shape, MsgBytes: msgBytes, Seed: c.seed,
			Shards: c.shards, Check: c.check, Faults: c.faults}}
		if dir := os.Getenv("CONFORMANCE_ARTIFACTS"); dir != "" {
			name := fmt.Sprintf("%s-%v-shards%d-seed%d-check%v", c.strat, c.shape, c.shards, c.seed, c.check)
			if c.faults != "" {
				name = "chaos-" + name
			}
			opts.DebugDump = filepath.Join(dir, name+".dump")
		}
		m.res, m.err = collective.Run(context.Background(), opts)
	})
	if m.err != nil {
		t.Fatalf("%v: %v", c, m.err)
	}
	return m.res
}

// runChecked is the healthy run of strat on shape with the invariant checker
// on.
func runChecked(t *testing.T, strat collective.Strategy, shape torus.Shape, shards int, seed uint64) collective.Result {
	t.Helper()
	return runCell(t, cell{strat: strat, shape: shape, shards: shards, seed: seed, check: true})
}

// baseline is the reference of the differential matrix: the checked
// one-engine run of strat on shape at seed 1.
func baseline(t *testing.T, strat collective.Strategy, shape torus.Shape) collective.Result {
	t.Helper()
	return runChecked(t, strat, shape, 1, 1)
}

// TestCheckedMatrix is the checked half of the differential matrix,
// {checked, plain} x shards {1, 2, 4} over every strategy and shape, each
// variant compared field for field with the baseline. It holds the baseline
// to the two properties that need no reference run - it passes every runtime
// invariant (credit conservation, bubble slots, FIFO bounds, monotonic time,
// quiescence) and its finish time respects the exact Equation 2 peak lower
// bound - and demands that the checked 2- and 4-shard runs equal it.
func TestCheckedMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, shape := range shapeMatrix() {
		for _, strat := range strategies() {
			t.Run(fmt.Sprintf("%s/%v", strat, shape), func(t *testing.T) {
				base := baseline(t, strat, shape)
				if ft := float64(base.Time); ft < base.PeakTime {
					t.Errorf("finish time %v beats the Equation 2 peak bound %v", ft, base.PeakTime)
				}
				for _, shards := range []int{2, 4} {
					if sharded := runChecked(t, strat, shape, shards, 1); !reflect.DeepEqual(base, sharded) {
						t.Errorf("checked %d-shard run differs from the baseline:\nbaseline: %+v\nsharded:  %+v", shards, base, sharded)
					}
				}
			})
		}
	}
}

// TestCoalesceDifferential is the matrix's plain half, the configuration
// production runs use: with the checker off, the run on 1, 2 and 4 engines
// must equal the baseline (checking never changes a Result, and splitting a
// run never changes it either). The name is kept so the subtests' identities
// do not move; the coalesced engine it once compared against is gone.
func TestCoalesceDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, shape := range shapeMatrix() {
		for _, strat := range strategies() {
			for _, shards := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%v/shards=%d", strat, shape, shards), func(t *testing.T) {
					base := baseline(t, strat, shape)
					if plain := runCell(t, cell{strat: strat, shape: shape, shards: shards, seed: 1}); !reflect.DeepEqual(base, plain) {
						t.Errorf("plain %d-shard run differs from the checked baseline:\nbaseline: %+v\nplain:    %+v", shards, base, plain)
					}
				})
			}
		}
	}
}

// TestPeakBoundAcrossSeeds re-checks the Equation 2 lower bound over several
// destination-order seeds for the schedule-sensitive strategies (the bound
// must hold for every schedule, not just the default one). Its runs are
// TestRankPermutationInvariance's, read from the memo.
func TestPeakBoundAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	seeds := []uint64{1, 2, 7}
	if full() {
		seeds = append(seeds, 11, 23)
	}
	shape := torus.New(4, 4, 4)
	for _, strat := range []collective.Strategy{collective.StratAR, collective.StratDR} {
		for _, seed := range seeds {
			res := runChecked(t, strat, shape, 1, seed)
			if ft := float64(res.Time); ft < res.PeakTime {
				t.Errorf("%s seed %d: finish %v beats peak bound %v", strat, seed, ft, res.PeakTime)
			}
		}
	}
}

// fullScan is an observer that records nothing. Installing it is what turns
// the engine's quiet-queue skip off: every failed arbitration visit must
// reach Sink.OnBlocked, so an observed run scans every queue it visits.
type fullScan struct{}

func (fullScan) BeginRun(torus.Shape, network.Params)                           {}
func (fullScan) Sink(int, int, int32, int32) network.Sink                       { return fullScan{} }
func (fullScan) EndRun(int64)                                                   {}
func (fullScan) OnGrant(int64, int32, int, int8, int32)                         {}
func (fullScan) OnBlocked(int64, int32, int8, int8, uint8, int64, int32, int32) {}
func (fullScan) OnInjFIFO(int32, int, int32)                                    {}
func (fullScan) OnRecvFIFO(int32, int32)                                        {}
func (fullScan) OnCPU(int64, int32, int64)                                      {}

// TestQuietSkipDifferential is the differential oracle for the quiet-queue
// skip (network/engine.go): a plain run, which skips visits it can prove are
// no-ops, and a run under a no-op observer, which scans them all, must return
// field-identical Results - every strategy, torus and mesh, healthy and under
// a fault schedule, checker on, one engine (the skip is per engine, and the
// shard matrix above covers splitting). Schedule seed 4 is chosen because it
// reroutes queued packets in place on the torus (up to 202 of them): with
// reroutePkt's invalidation of the quiet summary removed, five of the six
// strategies diverge under it.
func TestQuietSkipDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, shape := range []torus.Shape{torus.New(8, 4, 4), torus.NewMesh(8, 4, 4, false, false, false)} {
		for _, faults := range []string{"", randomFaults(shape, 4).String()} {
			for _, strat := range strategies() {
				name := fmt.Sprintf("%s/%v/faults=%v", strat, shape, faults != "")
				t.Run(name, func(t *testing.T) {
					run := func(obs network.Observer) collective.Result {
						res, err := collective.Run(context.Background(), collective.Options{
							Request:  collective.Request{Strategy: strat, Shape: shape, MsgBytes: msgBytes, Seed: 1, Shards: 1, Check: true, Faults: faults},
							Observer: obs,
						})
						if err != nil {
							t.Fatalf("observer=%v: %v", obs != nil, err)
						}
						return res
					}
					if skipping, scanning := run(nil), run(fullScan{}); !reflect.DeepEqual(skipping, scanning) {
						t.Errorf("skipping and full-scan runs differ:\nskipping: %+v\nscanning: %+v", skipping, scanning)
					}
				})
			}
		}
	}
}
