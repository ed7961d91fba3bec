package alltoall_test

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"alltoall"
	"alltoall/internal/collective"
)

func TestFacadeRun(t *testing.T) {
	res, err := alltoall.Run(context.Background(), alltoall.Request{
		Strategy: alltoall.AR, Shape: alltoall.NewTorus(4, 4, 1), MsgBytes: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.PercentPeak <= 0 {
		t.Errorf("percent of peak = %v", res.PercentPeak)
	}
}

// TestOneFrontDoor: a Request is the whole description of a run, so every
// strategy gives the identical Result through the facade, through the adapter
// bench/ and aaserve compile against, and through the core, on one engine and
// split three ways.
func TestOneFrontDoor(t *testing.T) {
	ctx := context.Background()
	for _, strat := range alltoall.Strategies() {
		req := alltoall.Request{Strategy: strat, Shape: alltoall.NewTorus(4, 4, 2), MsgBytes: 300, Seed: 2}
		want, err := alltoall.Run(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		for _, shards := range []int{0, 3} {
			req.Shards = shards
			for door, run := range map[string]func() (alltoall.Result, error){
				"alltoall.Run":          func() (alltoall.Result, error) { return alltoall.Run(ctx, req) },
				"collective.RunRequest": func() (alltoall.Result, error) { return collective.RunRequest(ctx, req) },
				"collective.Run": func() (alltoall.Result, error) {
					return collective.Run(ctx, collective.Options{Request: req})
				},
			} {
				if got, err := run(); err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("%s through %s at shards=%d: %+v, %v\nwant %+v", strat, door, shards, got, err, want)
				}
			}
		}
	}
}

func TestFacadeStrategies(t *testing.T) {
	ss := alltoall.Strategies()
	if len(ss) != 7 {
		t.Fatalf("strategies = %v", ss)
	}
	want := map[alltoall.Strategy]bool{
		alltoall.AR: true, alltoall.DR: true, alltoall.Throttle: true,
		alltoall.MPI: true, alltoall.TPS: true, alltoall.VMesh: true,
		alltoall.XYZ: true,
	}
	for _, s := range ss {
		if !want[s] {
			t.Errorf("unexpected strategy %q", s)
		}
	}
}

func TestFacadePeak(t *testing.T) {
	// Equation 2 on the paper's largest machine: 40x32x16, C = 5.
	s := alltoall.NewTorus(40, 32, 16)
	if got := alltoall.PeakTime(s, 1); got != float64(20480*5) {
		t.Errorf("peak = %v", got)
	}
}

func TestFacadeTPSDim(t *testing.T) {
	if d := alltoall.SelectTPSLinearDim(alltoall.NewTorus(8, 32, 16)); d != alltoall.Y {
		t.Errorf("linear dim = %v, want Y", d)
	}
}

func TestFacadeMesh(t *testing.T) {
	s := alltoall.NewMesh(8, 8, 4, true, true, false)
	if s.Wrap[alltoall.Z] {
		t.Error("Z should be a mesh dimension")
	}
	res, err := alltoall.Run(context.Background(), alltoall.Request{
		Strategy: alltoall.DR, Shape: alltoall.NewMesh(4, 4, 1, true, true, false), MsgBytes: 32, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.PayloadBytes == 0 {
		t.Error("no payload delivered")
	}
}

func TestFacadePredictions(t *testing.T) {
	c := alltoall.DefaultCalib()
	s := alltoall.NewTorus(8, 8, 8)
	if alltoall.PredictDirect(c, s, 1000) <= alltoall.PeakTime(s, 1000) {
		t.Error("Eq3 prediction must exceed the Eq2 peak (startup + header)")
	}
	if alltoall.PredictVMesh(c, s, 32, 16, 8) <= 0 {
		t.Error("Eq4 prediction not positive")
	}
	cols, rows := alltoall.BalancedVMeshFactor(512)
	if cols != 32 || rows != 16 {
		t.Errorf("factorization %dx%d", cols, rows)
	}
}

func TestFacadePattern(t *testing.T) {
	res, err := alltoall.RunPattern(context.Background(), alltoall.Shift{Offset: 2},
		alltoall.Request{Shape: alltoall.NewTorus(4, 4, 1), MsgBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.PayloadBytes / int64(res.MsgBytes); n != 16 {
		t.Errorf("messages = %d", n)
	}
}

// TestPatternHonoursRunOptions: a pattern run takes the same Options as Run.
// WithObserver, WithCalib, WithCache and WithDebugDump used to be dropped
// silently; machinery must not change the result, a changed calibration must.
func TestPatternHonoursRunOptions(t *testing.T) {
	run := func(extra ...alltoall.Option) alltoall.Result {
		t.Helper()
		res, err := alltoall.RunPattern(context.Background(), alltoall.Shift{Offset: 2},
			alltoall.Request{Shape: alltoall.NewTorus(4, 4, 1), MsgBytes: 128}, extra...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run()

	obs := alltoall.NewCollector(alltoall.ObserveConfig{})
	cache := &alltoall.NetCache{}
	for i := 0; i < 2; i++ { // the second pass recycles the cached network
		got := run(alltoall.WithObserver(obs), alltoall.WithCache(cache),
			alltoall.WithDebugDump(filepath.Join(t.TempDir(), "dump")))
		if !reflect.DeepEqual(got, plain) {
			t.Errorf("pass %d: run machinery changed the result:\n got %+v\nwant %+v", i, got, plain)
		}
	}
	sum := obs.Summary()
	if sum.Runs != 2 || sum.BytesByDim[0]+sum.BytesByDim[1] == 0 {
		t.Errorf("collector saw %d runs and %v link bytes by dimension, want 2 runs with traffic", sum.Runs, sum.BytesByDim)
	}

	calib := alltoall.DefaultCalib()
	calib.HeaderBytes = 200
	if got := run(alltoall.WithCalib(calib)); got.Time == plain.Time {
		t.Errorf("HeaderBytes 200 left Time at %d: the calibration was dropped", got.Time)
	}
}

// TestObserverLeavesResult: an attached observer is run machinery, so a
// Result is the same with or without one, and Result.Observed appears
// exactly when the Request asks to Observe. An Observe run takes a
// collector of any window, and refuses an observer that is not a collector.
func TestObserverLeavesResult(t *testing.T) {
	req := alltoall.Request{Strategy: alltoall.AR, Shape: alltoall.NewTorus(4, 4, 1), MsgBytes: 128, Seed: 1}
	run := func(req alltoall.Request, extra ...alltoall.Option) (alltoall.Result, error) {
		return alltoall.Run(context.Background(), req, extra...)
	}
	plain, err := run(req)
	if err != nil {
		t.Fatal(err)
	}
	watched, err := run(req, alltoall.WithObserver(alltoall.NewCollector(alltoall.ObserveConfig{})))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(watched, plain) {
		t.Errorf("an attached collector changed the result:\n got %+v\nwant %+v", watched, plain)
	}

	req.Observe = true
	fresh, err := run(req)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Observed == nil {
		t.Fatal("Observe set no Result.Observed")
	}
	// The window sizes only the collector's trace, never its Summary.
	for _, window := range []int64{0, 512} {
		own, err := run(req, alltoall.WithObserver(alltoall.NewCollector(alltoall.ObserveConfig{Window: window})))
		if err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		if !reflect.DeepEqual(own, fresh) {
			t.Errorf("Observe with the caller's window-%d collector differs from a fresh one:\n got %+v\nwant %+v", window, own.Observed, fresh.Observed)
		}
	}

	// Embedding keeps the collector's methods but not its type.
	wrapped := struct{ alltoall.Observer }{alltoall.NewCollector(alltoall.ObserveConfig{})}
	if _, err := run(req, alltoall.WithObserver(wrapped)); err == nil {
		t.Error("Observe with a non-collector observer ran")
	}
}

func TestFacadeTPSCreditFlowControl(t *testing.T) {
	// Each intermediate forwards 3 finals x 2 packets per source (the
	// fourth final in its plane is itself), so a batch of 4 yields credits.
	res, err := alltoall.Run(context.Background(), alltoall.Request{
		Strategy:        alltoall.TPS,
		Shape:           alltoall.NewTorus(8, 2, 2),
		MsgBytes:        400,
		Seed:            1,
		TPSCreditWindow: 8,
		TPSCreditBatch:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CreditPackets == 0 {
		t.Error("flow control sent no credits")
	}
	if res.MaxIntermediateBacklog == 0 {
		t.Error("no forwarding backlog recorded")
	}
}
