package collective

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"alltoall/internal/network"
	"alltoall/internal/torus"
)

// TestPatternRejects: a pattern whose parameters the shape cannot honour, or
// a run whose strategy does not route a pattern, is an error naming the
// pattern - never a panic (RandomSubset{K: -1} and DimShift{Dim: 5} used to
// be), never a silently ignored field.
func TestPatternRejects(t *testing.T) {
	shape := torus.New(4, 4, 2)
	for _, tc := range []struct {
		pat   Pattern
		shape torus.Shape
		strat Strategy
		want  string // in the error, beside the pattern's name
	}{
		{RandomSubset{K: -1}, shape, "", "sends nothing"},
		{RandomSubset{K: 0}, shape, "", "sends nothing"},
		{DimShift{Dim: 5, Hops: 1}, shape, "", "sends nothing"},
		{DimShift{Dim: -1, Hops: 1}, shape, "", "sends nothing"},
		{DimShift{Dim: torus.Z, Hops: 2}, shape, "", "sends nothing"}, // a full turn of the 2-ring
		{Shift{Offset: 0}, shape, "", "sends nothing"},
		{Shift{Offset: 32}, shape, "", "sends nothing"},
		{Transpose{}, torus.New(8, 4, 2), "", "sends nothing"},
		{HotSpot{Root: -1}, shape, "", "invalid destination"},
		{Shift{Offset: 1}, shape, StratTPS, `strategy "TPS"`},
		{Shift{Offset: 1}, shape, "bogus", `strategy "bogus"`},
	} {
		_, err := RunPattern(context.Background(), tc.pat,
			Options{Request: Request{Strategy: tc.strat, Shape: tc.shape, MsgBytes: 64}})
		if err == nil || !strings.Contains(err.Error(), tc.pat.Name()) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%#v on %v as %q: err = %v, want one naming %q and saying %q",
				tc.pat, tc.shape, tc.strat, err, tc.pat.Name(), tc.want)
		}
	}
}

// TestPatternStrategyIsTheRouting: AR and the unset strategy are the same
// adaptive run, DR is the deterministic one, and Request.Observe attaches a
// collector to a pattern run as it does to an all-to-all.
func TestPatternStrategyIsTheRouting(t *testing.T) {
	run := func(req Request) Result {
		t.Helper()
		req.Shape, req.MsgBytes = torus.New(4, 4, 2), 700
		res, err := RunPattern(context.Background(), RandomSubset{K: 6, Seed: 2}, Options{Request: req})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	unset, ar, dr := run(Request{}), run(Request{Strategy: StratAR}), run(Request{Strategy: StratDR})
	if unset.Time != ar.Time || unset.Events != ar.Events {
		t.Errorf("AR ran %d units / %d events, no strategy %d / %d: want the same adaptive run",
			ar.Time, ar.Events, unset.Time, unset.Events)
	}
	if dr.Time == ar.Time || dr.PayloadBytes != ar.PayloadBytes {
		t.Errorf("DR delivered %d bytes by %d, AR %d by %d: want the same messages on another routing",
			dr.PayloadBytes, dr.Time, ar.PayloadBytes, ar.Time)
	}
	if ar.PeakTime != 0 || ar.PercentPeak != 0 || ar.PerNodeMBs <= 0 {
		t.Errorf("pattern result carries peak %v / %v%% and %v MB/s: want no all-to-all bound and a rate",
			ar.PeakTime, ar.PercentPeak, ar.PerNodeMBs)
	}
	obs := run(Request{Observe: true})
	if obs.Observed == nil || obs.Observed.Runs != 1 || obs.Observed.BytesByDim[0] == 0 {
		t.Fatalf("Observe on a pattern run gave %+v, want one observed run with X traffic", obs.Observed)
	}
	if obs.Time != unset.Time || obs.Events != unset.Events {
		t.Errorf("observing changed the run: %d units / %d events, unobserved %d / %d",
			obs.Time, obs.Events, unset.Time, unset.Events)
	}
}

// messages is the number of messages a pattern run delivered.
func messages(res Result) int64 { return res.PayloadBytes / int64(res.MsgBytes) }

// TestHotSpotIncast: incast serializes on the root's reception, so
// completion takes at least (P-1) messages through the root's links.
func TestHotSpotIncast(t *testing.T) {
	s := torus.New(4, 4, 1)
	res, err := RunPattern(context.Background(), HotSpot{Root: 5}, Options{Request: Request{Shape: s, MsgBytes: 256}})
	if err != nil {
		t.Fatal(err)
	}
	if messages(res) != int64(s.P()-1) {
		t.Errorf("messages = %d", messages(res))
	}
	if res.Time < int64(s.P()-1)*256/6 {
		t.Errorf("incast finished implausibly fast: %d", res.Time)
	}
}

// TestRandomSubset: a K larger than P-1 clamps to every other node.
func TestRandomSubset(t *testing.T) {
	s := torus.New(8, 4, 4)
	res, err := RunPattern(context.Background(), RandomSubset{K: 5, Seed: 3}, Options{Request: Request{Shape: s, MsgBytes: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if messages(res) != int64(5*s.P()) {
		t.Errorf("messages = %d, want %d", messages(res), 5*s.P())
	}
	res2, err := RunPattern(context.Background(), RandomSubset{K: 1000, Seed: 3}, Options{Request: Request{Shape: torus.New(4, 2, 1), MsgBytes: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if messages(res2) != int64(7*8) {
		t.Errorf("clamped messages = %d, want 56", messages(res2))
	}
}

// TestPatternValidation: a pattern run validates its Request like an
// all-to-all does.
func TestPatternValidation(t *testing.T) {
	if _, err := RunPattern(context.Background(), Shift{Offset: 1}, Options{Request: Request{Shape: torus.Shape{Size: [3]int{0, 1, 1}}, MsgBytes: 8}}); err == nil {
		t.Error("invalid shape accepted")
	}
	if _, err := RunPattern(context.Background(), Shift{Offset: 1}, Options{Request: Request{Shape: torus.New(8, 4, 4), MsgBytes: 0}}); err == nil {
		t.Error("zero message accepted")
	}
}

// TestPatternDestinationsPure: Destinations never yields self or an
// out-of-range rank for any pattern in the catalogue.
func TestPatternDestinationsPure(t *testing.T) {
	s := torus.New(4, 4, 2)
	pats := []Pattern{
		Shift{Offset: 7}, DimShift{Dim: torus.Z, Hops: 1}, RandomPermutation{Seed: 2},
		HotSpot{Root: 3}, RandomSubset{K: 4, Seed: 8},
	}
	for _, pat := range pats {
		for src := 0; src < s.P(); src++ {
			for _, d := range pat.Destinations(s, src) {
				if d == src || d < 0 || d >= s.P() {
					t.Fatalf("%s: bad destination %d from %d", pat.Name(), d, src)
				}
			}
		}
	}
}

// TestRunOptsSharded checks pattern runs on the window-parallel engine
// produce the identical result as the serial engine.
func TestRunOptsSharded(t *testing.T) {
	s := torus.New(4, 4, 2)
	serial, err := RunPattern(context.Background(), Shift{Offset: 5},
		Options{Request: Request{Shape: s, MsgBytes: 256, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := RunPattern(context.Background(), Shift{Offset: 5},
		Options{Request: Request{Shape: s, MsgBytes: 256, Seed: 1, Shards: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, sharded) {
		t.Errorf("sharded pattern run diverged:\nserial  %+v\nsharded %+v", serial, sharded)
	}
}

func TestRunOptsPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunPattern(ctx, Shift{Offset: 1},
		Options{Request: Request{Shape: torus.New(4, 4, 2), MsgBytes: 64}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// lateCancel is a context that admits the run (Err is nil) but whose Done
// channel is already closed, so the cancellation is seen by the engine.
type lateCancel struct {
	context.Context
	done chan struct{}
}

func (c lateCancel) Done() <-chan struct{} { return c.done }

// TestRunCanceledMidRun drives the engine's cancellation path directly: a
// closed Done channel aborts the simulation with ErrCanceled.
func TestRunCanceledMidRun(t *testing.T) {
	ctx := lateCancel{context.Background(), make(chan struct{})}
	close(ctx.done)
	_, err := RunPattern(ctx, RandomSubset{K: 8, Seed: 3},
		Options{Request: Request{Shape: torus.New(8, 4, 4), MsgBytes: 4096}})
	if !errors.Is(err, network.ErrCanceled) {
		t.Errorf("err = %v, want wrapping network.ErrCanceled", err)
	}
}

func TestRunOptsMaxTime(t *testing.T) {
	for _, shards := range []int{1, 4} {
		_, err := RunPattern(context.Background(), Shift{Offset: 1},
			Options{Request: Request{Shape: torus.New(4, 4, 2), MsgBytes: 4096, MaxTime: 50, Shards: shards}})
		if !errors.Is(err, network.ErrMaxTime) {
			t.Errorf("shards=%d: err = %v, want wrapping network.ErrMaxTime", shards, err)
		}
	}
}
