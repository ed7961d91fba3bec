// Tests live in observe_test so they can drive full collective runs: the
// import chain collective -> observe forbids an internal test package.
package observe_test

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"alltoall/internal/collective"
	"alltoall/internal/observe"
	"alltoall/internal/torus"
)

func run(t *testing.T, strat collective.Strategy, shape torus.Shape, shards int, obs *observe.Collector) collective.Result {
	t.Helper()
	opts := collective.Options{
		Request: collective.Request{
			Strategy: strat,
			Shape:    shape,
			MsgBytes: 240,
			Seed:     1,
			Shards:   shards,
		},
	}
	if obs != nil { // a typed-nil *Collector must not become a non-nil Observer
		opts.Observer = obs
	}
	res, err := collective.Run(context.Background(), opts)
	if err != nil {
		t.Fatalf("%s on %v: %v", strat, shape, err)
	}
	return res
}

// observed holds the observed AR runs more than one test reads, each
// simulated once per package, by whichever test asks first. The most
// expensive is 16x8x4, the smallest asymmetric shape that shows the HoL
// signature: on 16x4x4 and 8x4x4 the counter reads 0.
var observed struct {
	sync.Mutex
	runs map[observedKey]*observedRun
}

type observedKey struct {
	shape  torus.Shape
	shards int
}

type observedRun struct {
	once sync.Once
	res  collective.Result
	obs  *observe.Collector
	err  error
}

// observedAR returns AR on shape (seed 1) on shards engines and the
// collector that watched it. Callers only read the collector.
func observedAR(t *testing.T, shape torus.Shape, shards int) (collective.Result, *observe.Collector) {
	t.Helper()
	key := observedKey{shape, shards}
	observed.Lock()
	if observed.runs == nil {
		observed.runs = make(map[observedKey]*observedRun)
	}
	r := observed.runs[key]
	if r == nil {
		r = &observedRun{}
		observed.runs[key] = r
	}
	observed.Unlock()
	r.once.Do(func() {
		r.obs = observe.New(observe.Config{})
		r.res, r.err = collective.Run(context.Background(), collective.Options{
			Request: collective.Request{Strategy: collective.StratAR, Shape: shape, MsgBytes: 240, Seed: 1, Shards: shards,
				Observe: true},
			Observer: r.obs})
	})
	if r.err != nil {
		t.Fatalf("AR on %v: %v", shape, r.err)
	}
	return r.res, r.obs
}

// TestHoLSignature pins the head-of-line-blocking diagnostic to the paper's
// Section 5 claim: the counter is quiet on a symmetric torus (adaptive
// routing balances, nothing saturates ahead of anything) and hot on an
// asymmetric one (Y/Z dynamic-VC packets stuck behind saturated X links),
// where attribution must also name X and show idle Y/Z capacity.
func TestHoLSignature(t *testing.T) {
	if testing.Short() {
		t.Skip("full collective runs")
	}

	obs := observe.New(observe.Config{})
	run(t, collective.StratAR, torus.New(4, 4, 4), 1, obs)
	sym := obs.Summary()
	if sym.SaturatedDim == "" {
		t.Fatalf("symmetric run recorded no traffic")
	}

	res, asymObs := observedAR(t, torus.New(16, 8, 4), 0)
	asym := asymObs.Summary()

	if asym.SaturatedDim != "x" {
		t.Errorf("asymmetric AR: saturated dim = %q, want x", asym.SaturatedDim)
	}
	if asym.UtilByDim[0] < 0.7 {
		t.Errorf("asymmetric AR: X util = %.2f, want >= 0.7 (saturated)", asym.UtilByDim[0])
	}
	for d := 1; d < torus.NumDims; d++ {
		if asym.UtilByDim[d] > 0.75*asym.UtilByDim[0] {
			t.Errorf("asymmetric AR: dim %d util %.2f not clearly below X's %.2f",
				d, asym.UtilByDim[d], asym.UtilByDim[0])
		}
	}
	if asym.HoLBlocked == 0 {
		t.Errorf("asymmetric AR: HoL counter is zero, want positive")
	}
	// The symmetric machine has no structurally saturated dimension for
	// packets to block behind: with the calibrated thresholds the counter
	// must be exactly zero (no block on 4x4x4 survives HoLDelay with
	// HoLMinQueue victims behind it).
	if sym.HoLBlocked != 0 {
		t.Errorf("symmetric HoL = %d, want 0", sym.HoLBlocked)
	}
	if res.Observed == nil || res.Observed.HoLBlocked != asym.HoLBlocked {
		t.Errorf("Result.Observed not carrying the collector summary: %+v", res.Observed)
	}
}

// TestTPSBalanced: on the same asymmetric shape the Two Phase Schedule's
// X traffic is uniform across links and the HoL counter stays cold.
func TestTPSBalanced(t *testing.T) {
	if testing.Short() {
		t.Skip("full collective runs")
	}
	obsTPS := observe.New(observe.Config{})
	run(t, collective.StratTPS, torus.New(16, 8, 4), 1, obsTPS)
	_, arObs := observedAR(t, torus.New(16, 8, 4), 0)
	ar, tps := arObs.Summary(), obsTPS.Summary()
	if tps.HoLBlocked*10 > ar.HoLBlocked {
		t.Errorf("TPS HoL %d not << AR HoL %d", tps.HoLBlocked, ar.HoLBlocked)
	}
	// Balanced: the busiest TPS link is close to the dimension mean, where
	// AR's ragged adaptive schedule leaves a wider spread.
	if tps.UtilByDim[0] > 0 && tps.MaxLinkUtil > 1.15*tps.UtilByDim[0] {
		t.Errorf("TPS max link util %.3f vs X mean %.3f: not balanced", tps.MaxLinkUtil, tps.UtilByDim[0])
	}
}

// TestObserverShardIdentity: an observed sharded run must produce the same
// Summary and the same trace bytes as the serial engine - observation is
// part of the determinism contract.
func TestObserverShardIdentity(t *testing.T) {
	shape := torus.New(8, 4, 4)
	resSerial, obsSerial := observedAR(t, shape, 1)
	obsSharded := observe.New(observe.Config{})
	resSharded := run(t, collective.StratAR, shape, 4, obsSharded)

	if resSerial.Time != resSharded.Time {
		t.Fatalf("finish time diverged: serial %d, sharded %d", resSerial.Time, resSharded.Time)
	}
	if !reflect.DeepEqual(obsSerial.Summary(), obsSharded.Summary()) {
		t.Errorf("summaries diverged:\nserial:  %+v\nsharded: %+v", obsSerial.Summary(), obsSharded.Summary())
	}
	var a, b bytes.Buffer
	if err := obsSerial.WriteTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := obsSharded.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("trace bytes diverged (serial %d bytes, sharded %d bytes)", a.Len(), b.Len())
	}
}

// TestObserverDoesNotPerturb: the simulation's outcome must be identical
// with and without an observer installed (the observed run is
// TestObserverShardIdentity's serial one).
func TestObserverDoesNotPerturb(t *testing.T) {
	shape := torus.New(8, 4, 4)
	bare := run(t, collective.StratAR, shape, 1, nil)
	observed, _ := observedAR(t, shape, 1)
	if bare.Time != observed.Time || bare.PacketsInjected != observed.PacketsInjected ||
		bare.Events != observed.Events {
		t.Errorf("observer perturbed the run: bare {t=%d pkts=%d ev=%d}, observed {t=%d pkts=%d ev=%d}",
			bare.Time, bare.PacketsInjected, bare.Events,
			observed.Time, observed.PacketsInjected, observed.Events)
	}
}

// TestSummaryIndependentOfWindow: the window sizes only the trace buckets,
// so one run watched through windows of 64 and 4096 has one Summary - which
// is why a Request has no window to ask for.
func TestSummaryIndependentOfWindow(t *testing.T) {
	for _, strat := range []collective.Strategy{collective.StratAR, collective.StratTPS, collective.StratVMesh} {
		var sums [2]*observe.Summary
		for i, window := range []int64{64, 4096} {
			obs := observe.New(observe.Config{Window: window})
			_, err := collective.Run(context.Background(), collective.Options{
				Request: collective.Request{Strategy: strat, Shape: torus.New(8, 4, 2), MsgBytes: 240, Seed: 1,
					Faults: "0:7:+z:x3;1000:12:+x:down;5000:12:+x:up"},
				Observer: obs,
			})
			if err != nil {
				t.Fatalf("%s: %v", strat, err)
			}
			sums[i] = obs.Summary()
		}
		if sums[0].FaultEvents == 0 {
			t.Errorf("%s: no fault was observed", strat)
		}
		if !reflect.DeepEqual(sums[0], sums[1]) {
			t.Errorf("%s: the window moved the summary:\n  64: %+v\n4096: %+v", strat, sums[0], sums[1])
		}
	}
}

// TestCollectorAccumulatesAndResets covers multi-run folding and reuse.
func TestCollectorAccumulatesAndResets(t *testing.T) {
	shape := torus.New(4, 4, 2)
	obs := observe.New(observe.Config{})
	run(t, collective.StratAR, shape, 1, obs)
	one := obs.Summary()
	run(t, collective.StratAR, shape, 1, obs)
	two := obs.Summary()
	if two.Runs != 2 || two.Finish != 2*one.Finish {
		t.Errorf("accumulation: runs=%d finish=%d, want 2 runs at finish %d", two.Runs, two.Finish, 2*one.Finish)
	}
	if two.BytesByDim[0] != 2*one.BytesByDim[0] {
		t.Errorf("accumulated X bytes %d, want %d", two.BytesByDim[0], 2*one.BytesByDim[0])
	}
	obs.Reset()
	run(t, collective.StratAR, shape, 1, obs)
	again := obs.Summary()
	if !reflect.DeepEqual(one, again) {
		t.Errorf("post-Reset summary diverged from first run:\n first: %+v\n again: %+v", one, again)
	}

	// Rebinding to a new shape resets implicitly.
	run(t, collective.StratAR, torus.New(4, 2, 2), 1, obs)
	if s := obs.Summary(); s.Runs != 1 || s.Shape != torus.New(4, 2, 2).String() {
		t.Errorf("shape rebind: %+v", s)
	}
}

// TestSummaryOfUnusedCollector: a collector that never observed a run has no
// shape to normalize by; Summary reports zeros instead of dividing by them.
func TestSummaryOfUnusedCollector(t *testing.T) {
	s := observe.New(observe.Config{Window: 256}).Summary()
	want := observe.Summary{SchemaVersion: observe.SchemaVersion}
	if !reflect.DeepEqual(*s, want) {
		t.Errorf("unused collector summary = %+v, want %+v", *s, want)
	}
}

// TestContextCancel: a canceled context aborts serial and sharded runs.
func TestContextCancel(t *testing.T) {
	for _, shards := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := collective.Run(ctx, collective.Options{
			Request: collective.Request{
				Strategy: collective.StratAR,
				Shape:    torus.New(8, 8, 8),
				MsgBytes: 240,
				Seed:     1,
				Shards:   shards,
			},
		})
		if err == nil {
			t.Fatalf("shards=%d: canceled context did not abort the run", shards)
		}
	}
}

// TestAccessorsDoNotAliasInternals pins the read-API contract: every slice
// or struct an accessor hands out is the caller's to keep. Mutating a
// returned value must not change what a later call observes, and collecting
// more data must not mutate an already-returned snapshot.
func TestAccessorsDoNotAliasInternals(t *testing.T) {
	shape := torus.New(4, 4, 2)
	obs := observe.New(observe.Config{Window: 64})
	run(t, collective.StratAR, shape, 1, obs)

	// DimSeries: a held series must survive both caller mutation and
	// further collection (it feeds report attribution, which must not see
	// its inputs shift mid-analysis).
	s1 := obs.DimSeries(0)
	if len(s1) == 0 {
		t.Fatal("no windows recorded")
	}
	want := append([]int64(nil), s1...)
	for i := range s1 {
		s1[i] = -1
	}
	if s2 := obs.DimSeries(0); !reflect.DeepEqual(s2, want) {
		t.Errorf("mutating DimSeries return corrupted the collector: got %v, want %v", s2, want)
	}
	held := obs.DimSeries(0)
	run(t, collective.StratAR, shape, 1, obs)
	if !reflect.DeepEqual(held, want) {
		t.Errorf("later collection mutated a held DimSeries snapshot: got %v, want %v", held, want)
	}

	// RankLinks: entries are values; scribbling on them must not leak back.
	r1 := obs.RankLinks(0)
	if len(r1) == 0 {
		t.Fatal("no links ranked")
	}
	wantTop := r1[0]
	r1[0].Bytes = -1
	r1[0].Util = -1
	if r2 := obs.RankLinks(0); !reflect.DeepEqual(r2[0], wantTop) {
		t.Errorf("mutating RankLinks return corrupted the collector: got %+v, want %+v", r2[0], wantTop)
	}

	// Summary: each call builds a fresh struct.
	sum := obs.Summary()
	wantSum := *sum
	sum.BytesByDim[0] = -1
	sum.HoLMatrix[0][0] = -1
	if got := obs.Summary(); !reflect.DeepEqual(*got, wantSum) {
		t.Errorf("mutating Summary return corrupted the collector: got %+v, want %+v", *got, wantSum)
	}
}
