package conformance

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

// runChecked performs one strategy run with the runtime invariant checker
// enabled, dumping network state to $CONFORMANCE_ARTIFACTS on failure.
func runChecked(t *testing.T, strat collective.Strategy, shape torus.Shape, shards int, seed uint64) collective.Result {
	t.Helper()
	opts := collective.Options{
		Request: collective.Request{
			Strategy: strat,
			Shape:    shape,
			MsgBytes: msgBytes,
			Seed:     seed,
			Check:    true,
			Shards:   shards,
		},
	}
	if dir := os.Getenv("CONFORMANCE_ARTIFACTS"); dir != "" {
		opts.DebugDump = filepath.Join(dir,
			fmt.Sprintf("%s-%v-shards%d-seed%d.dump", strat, shape, shards, seed))
	}
	res, err := collective.Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("%s on %v shards=%d seed=%d (checked): %v", strat, shape, shards, seed, err)
	}
	return res
}

// TestCheckedMatrix runs every strategy over the shape matrix at shard
// counts 1, 2 and 4 with invariant checking on, and holds each result to the
// two properties that need no reference run: the run passes every runtime
// invariant (credit conservation, bubble slots, FIFO bounds, monotonic
// time, quiescence), and the finish time respects the exact Equation 2
// peak lower bound. The sharded results must also equal the serial one field
// for field.
func TestCheckedMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, shape := range shapeMatrix() {
		for _, strat := range strategies() {
			t.Run(fmt.Sprintf("%s/%v", strat, shape), func(t *testing.T) {
				serial := runChecked(t, strat, shape, 1, 1)
				if ft := float64(serial.Time); ft < serial.PeakTime {
					t.Errorf("finish time %v beats the Equation 2 peak bound %v", ft, serial.PeakTime)
				}
				for _, shards := range []int{2, 4} {
					if sharded := runChecked(t, strat, shape, shards, 1); !reflect.DeepEqual(serial, sharded) {
						t.Errorf("serial and %d-shard checked runs differ:\nserial:  %+v\nsharded: %+v", shards, serial, sharded)
					}
				}
			})
		}
	}
}

// TestCoalesceDifferential is TestCheckedMatrix's twin for the configuration
// production runs use, checker off: over the same strategies and shapes, the
// unchecked serial run must equal the checked one (checking never changes a
// Result) and the unchecked 4-shard run must equal the unchecked serial one.
// The name is the one the recorded test floor knows these subtests by; the
// coalesced engine it once compared against is gone.
func TestCoalesceDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, shape := range shapeMatrix() {
		for _, strat := range strategies() {
			run := func(t *testing.T, shards int) collective.Result {
				res, err := collective.Run(context.Background(),
					collective.Options{Request: collective.Request{Strategy: strat, Shape: shape, MsgBytes: msgBytes, Seed: 1, Shards: shards}})
				if err != nil {
					t.Fatalf("%s on %v shards=%d: %v", strat, shape, shards, err)
				}
				return res
			}
			var serial *collective.Result // made by whichever subtest runs first
			plain := func(t *testing.T) collective.Result {
				if serial == nil {
					res := run(t, 1)
					serial = &res
				}
				return *serial
			}
			t.Run(fmt.Sprintf("%s/%v/shards=1", strat, shape), func(t *testing.T) {
				if plain, checked := plain(t), runChecked(t, strat, shape, 1, 1); !reflect.DeepEqual(plain, checked) {
					t.Errorf("checking changed the result:\nplain:   %+v\nchecked: %+v", plain, checked)
				}
			})
			t.Run(fmt.Sprintf("%s/%v/shards=4", strat, shape), func(t *testing.T) {
				if serial, sharded := plain(t), run(t, 4); !reflect.DeepEqual(serial, sharded) {
					t.Errorf("serial and 4-shard runs differ:\nserial:  %+v\nsharded: %+v", serial, sharded)
				}
			})
		}
	}
}

// TestPeakBoundAcrossSeeds re-checks the Equation 2 lower bound over several
// destination-order seeds for the schedule-sensitive strategies (the bound
// must hold for every schedule, not just the default one).
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
// a fault schedule, checker on. Schedule seed 4 is chosen because it
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
							Request:  collective.Request{Strategy: strat, Shape: shape, MsgBytes: msgBytes, Seed: 1, Check: true, Faults: faults},
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
