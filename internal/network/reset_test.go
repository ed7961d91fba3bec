package network

import (
	"reflect"
	"testing"

	"alltoall/internal/torus"
)

// TestResetMatchesFresh: a recycled network must reproduce a fresh
// network's run exactly - same finish time, same full statistics.
func TestResetMatchesFresh(t *testing.T) {
	shape := torus.New(4, 4, 2)
	p := shape.P()
	mkSrcs := func(size int32) []Source {
		srcs := make([]Source, p)
		for n := 0; n < p; n++ {
			srcs[n] = &allToAllSource{self: int32(n), p: int32(p), size: size}
		}
		return srcs
	}
	run := func(nw *Network) (int64, *Stats) {
		tt, err := nw.Run(1 << 40)
		if err != nil {
			t.Fatal(err)
		}
		return tt, nw.Stats()
	}

	freshA, err := New(shape, DefaultParams(), mkSrcs(256), countOnly{})
	if err != nil {
		t.Fatal(err)
	}
	tA, stA := run(freshA)

	freshB, err := New(shape, DefaultParams(), mkSrcs(128), countOnly{})
	if err != nil {
		t.Fatal(err)
	}
	tB, stB := run(freshB)

	// Recycle one network through both workloads, in both orders.
	nw, err := New(shape, DefaultParams(), mkSrcs(256), countOnly{})
	if err != nil {
		t.Fatal(err)
	}
	run(nw)
	for i, want := range []struct {
		size int64
		t    int64
		st   *Stats
	}{{128, tB, stB}, {256, tA, stA}, {128, tB, stB}} {
		if err := nw.Reset(mkSrcs(int32(want.size)), countOnly{}); err != nil {
			t.Fatal(err)
		}
		gotT, gotSt := run(nw)
		if gotT != want.t {
			t.Errorf("reset run %d (size %d): finish %d, fresh %d", i, want.size, gotT, want.t)
		}
		if !reflect.DeepEqual(gotSt, want.st) {
			t.Errorf("reset run %d (size %d): stats diverged\nreset: %+v\nfresh: %+v",
				i, want.size, gotSt, want.st)
		}
	}
}

// TestResetRejectsWrongSourceCount: Reset validates like New.
func TestResetRejectsWrongSourceCount(t *testing.T) {
	shape := torus.New(4, 2, 1)
	p := shape.P()
	srcs := make([]Source, p)
	for n := 0; n < p; n++ {
		srcs[n] = &listSource{}
	}
	nw, err := New(shape, DefaultParams(), srcs, countOnly{})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Reset(srcs[:p-1], countOnly{}); err == nil {
		t.Error("short source slice accepted")
	}
	if err := nw.Reset(srcs, nil); err == nil {
		t.Error("nil handler accepted")
	}
}

// TestResetParamsMatchesFresh: recycling a network across *parameter*
// changes (delays, checking) must reproduce a fresh network's run exactly.
// This is the contract that lets the collective NetCache recycle across a
// parameter sweep: the calendar horizon has to be rebuilt from the new
// Params, not inherited from the cached run.
func TestResetParamsMatchesFresh(t *testing.T) {
	shape := torus.New(4, 4, 2)
	p := shape.P()
	mkSrcs := func() []Source {
		srcs := make([]Source, p)
		for n := 0; n < p; n++ {
			srcs[n] = &allToAllSource{self: int32(n), p: int32(p), size: 192}
		}
		return srcs
	}
	run := func(nw *Network) (int64, *Stats) {
		tt, err := nw.Run(1 << 40)
		if err != nil {
			t.Fatal(err)
		}
		return tt, nw.Stats()
	}

	base := DefaultParams()
	longCredit := base
	longCredit.CreditDelay = 60 // different calendar horizon derivation
	checked := base
	checked.Check = true
	variants := []Params{base, longCredit, checked, base}

	want := make([]struct {
		t  int64
		st *Stats
	}, len(variants))
	for i, par := range variants {
		nw, err := New(shape, par, mkSrcs(), countOnly{})
		if err != nil {
			t.Fatal(err)
		}
		want[i].t, want[i].st = run(nw)
	}

	nw, err := New(shape, variants[len(variants)-1], mkSrcs(), countOnly{})
	if err != nil {
		t.Fatal(err)
	}
	run(nw)
	for i, par := range variants {
		if err := nw.ResetParams(par, mkSrcs(), countOnly{}); err != nil {
			t.Fatal(err)
		}
		gotT, gotSt := run(nw)
		if gotT != want[i].t {
			t.Errorf("variant %d: finish %d, fresh %d", i, gotT, want[i].t)
		}
		if !reflect.DeepEqual(gotSt, want[i].st) {
			t.Errorf("variant %d: stats diverged\nrecycled: %+v\nfresh:    %+v", i, gotSt, want[i].st)
		}
	}
}

// TestResetParamsRejectsStructureChange: parameters that size buffers at
// construction time cannot recycle.
func TestResetParamsRejectsStructureChange(t *testing.T) {
	shape := torus.New(4, 2, 1)
	p := shape.P()
	srcs := make([]Source, p)
	for n := 0; n < p; n++ {
		srcs[n] = &listSource{}
	}
	nw, err := New(shape, DefaultParams(), srcs, countOnly{})
	if err != nil {
		t.Fatal(err)
	}
	bigger := DefaultParams()
	bigger.VCBytes *= 2
	if err := nw.ResetParams(bigger, srcs, countOnly{}); err == nil {
		t.Error("VCBytes change accepted by ResetParams")
	}
	invalid := DefaultParams()
	invalid.VCLookahead = 0
	if err := nw.ResetParams(invalid, srcs, countOnly{}); err == nil {
		t.Error("invalid VCLookahead accepted by ResetParams")
	}
}
