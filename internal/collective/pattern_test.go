package collective

import (
	"context"
	"strings"
	"testing"

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
