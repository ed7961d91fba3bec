package network

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"alltoall/internal/parallel"
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

// TestPerRunSettingsAcrossReset: the checker flag and the fault schedule are
// per-run settings on one machine. A network recycled through healthy,
// checked, faulted (a kill), checked plus faulted and healthy again - via
// Reset and each run's RunSpec - must reproduce at every step a fresh
// network with the same settings, field for field, at one and two engines.
func TestPerRunSettingsAcrossReset(t *testing.T) {
	shape := torus.New(4, 4, 2)
	p := shape.P()
	mkSrcs := func() []Source {
		srcs := make([]Source, p)
		for n := 0; n < p; n++ {
			srcs[n] = &allToAllSource{self: int32(n), p: int32(p), size: 192}
		}
		return srcs
	}
	kill, err := ParseFaults("0:5:+x:kill")
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		check  bool
		faults *FaultSchedule
	}{{false, nil}, {true, nil}, {false, kill}, {true, kill}, {false, nil}}
	spec := func(i, shards int) RunSpec {
		return RunSpec{MaxTime: 1 << 40, Shards: shards, Check: steps[i].check, Faults: steps[i].faults}
	}
	type outcome struct {
		t  int64
		st *Stats
	}
	want := make([]outcome, len(steps))
	for i := range steps {
		nw := buildNet(t, shape, DefaultParams(), mkSrcs(), countOnly{})
		fin, _, err := nw.RunSharded(spec(i, 1))
		if err != nil {
			t.Fatalf("step %d fresh: %v", i, err)
		}
		want[i] = outcome{fin, nw.Stats()}
		if faulted := want[i].st.DeadLinkTicks > 0; faulted != (steps[i].faults != nil) {
			t.Fatalf("step %d fresh: DeadLinkTicks %d with faults %v", i, want[i].st.DeadLinkTicks, steps[i].faults)
		}
	}
	for _, shards := range []int{1, 2} {
		nw := buildNet(t, shape, DefaultParams(), mkSrcs(), countOnly{})
		for i := range steps {
			if err := nw.Reset(mkSrcs(), countOnly{}); err != nil {
				t.Fatal(err)
			}
			fin, _, err := nw.RunSharded(spec(i, shards))
			if err != nil {
				t.Fatalf("shards=%d step %d: %v", shards, i, err)
			}
			if fin != want[i].t {
				t.Errorf("shards=%d step %d: finish %d, fresh %d", shards, i, fin, want[i].t)
			}
			if st := nw.Stats(); !reflect.DeepEqual(st, want[i].st) {
				t.Errorf("shards=%d step %d: stats diverged\nrecycled: %+v\nfresh:    %+v", shards, i, st, want[i].st)
			}
			for j := range nw.engines {
				if nw.engines[j].check != steps[i].check {
					t.Errorf("shards=%d step %d: engine %d ran with check=%v", shards, i, j, nw.engines[j].check)
				}
			}
		}
	}
}

// TestNewRejectsInvalidParams: buffer geometry the escape channel cannot run
// on, and a lookahead below one packet, are refused at construction.
func TestNewRejectsInvalidParams(t *testing.T) {
	small := DefaultParams()
	small.VCBytes = 2*MaxPacketBytes - 1
	noLookahead := DefaultParams()
	noLookahead.VCLookahead = 0
	for name, par := range map[string]Params{"VCBytes below two packets": small, "VCLookahead 0": noLookahead} {
		if _, err := New(torus.New(4, 2, 1), par, nil, countOnly{}); err == nil {
			t.Errorf("%s accepted by New", name)
		}
	}
}

// cancelAfter wraps shardCountHandler and calls cancel at node 0's k-th
// delivery. Only node 0's worker ever calls it, so the wrapper stays
// node-partitioned like the handler inside it.
type cancelAfter struct {
	*shardCountHandler
	k      int64
	cancel context.CancelFunc
}

func (h *cancelAfter) OnDeliver(d Delivered, fw []PacketSpec) ([]PacketSpec, int64, bool) {
	if d.Node == 0 && h.perNode[0]+1 == h.k {
		h.cancel()
	}
	return h.shardCountHandler.OnDeliver(d, fw)
}

// TestFailedRunThenResetRecycles: a run that ends in an error - cut off by
// maxTime, or canceled mid-run - leaves packets, events, mailboxes and a
// published error behind on every engine. Reset must clear all of it: a full
// run afterwards, at the same or another shard count, reproduces a fresh
// one-engine run field for field, with the invariant checker on.
func TestFailedRunThenResetRecycles(t *testing.T) {
	shape := torus.New(4, 4, 4)
	p := shape.P()
	// Six rounds of the random mix: long enough that a one-engine run polls
	// its cancel channel (every 8192 events) well before the finish.
	traffic := func() []Source {
		srcs := shardTraffic(p, 7)
		for _, s := range srcs {
			if ls, ok := s.(*listSource); ok {
				one := ls.specs
				for r := 0; r < 5; r++ {
					ls.specs = append(ls.specs, one...)
				}
			}
		}
		return srcs
	}
	refH := newShardCountHandler(p)
	ref := buildNet(t, shape, DefaultParams(), traffic(), refH)
	refFin, _, err := ref.RunSharded(RunSpec{MaxTime: 1 << 40, Shards: 1, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, fail := range []error{ErrMaxTime, ErrCanceled} {
		for _, s := range []int{1, 3} {
			for _, s2 := range []int{1, 3} {
				h := newShardCountHandler(p)
				ctx, cancel := context.WithCancel(context.Background())
				first, maxTime := Handler(h), refFin/3
				if fail == ErrCanceled {
					first, maxTime = &cancelAfter{h, 3, cancel}, 1<<40
				}
				nw := buildNet(t, shape, DefaultParams(), traffic(), first)
				if _, _, err := nw.RunSharded(RunSpec{MaxTime: maxTime, Shards: s, Ctx: ctx, Check: true}); !errors.Is(err, fail) {
					t.Fatalf("shards=%d: err = %v, want %v", s, err, fail)
				}
				if n := parallel.CoresInUse(); n != 0 {
					t.Fatalf("%v at shards=%d left %d engine cores registered", fail, s, n)
				}
				cancel()
				h.reset()
				if err := nw.Reset(traffic(), h); err != nil {
					t.Fatal(err)
				}
				fin, _, err := nw.RunSharded(RunSpec{MaxTime: 1 << 40, Shards: s2, Check: true})
				if err != nil {
					t.Fatalf("%v at shards=%d, then %d: %v", fail, s, s2, err)
				}
				if fin != refFin {
					t.Errorf("%v at shards=%d, then %d: finish %d, fresh %d", fail, s, s2, fin, refFin)
				}
				if !reflect.DeepEqual(nw.Stats(), ref.Stats()) {
					t.Errorf("%v at shards=%d, then %d: stats diverge from a fresh run\nfresh:    %+v\nrecycled: %+v",
						fail, s, s2, ref.Stats(), nw.Stats())
				}
				if !reflect.DeepEqual(h, refH) {
					t.Errorf("%v at shards=%d, then %d: handler observations diverge from a fresh run", fail, s, s2)
				}
			}
		}
	}
}

// ringSlotsTotal sums the ring sizes of every queue in the machine.
func ringSlotsTotal(nw *Network) int {
	n := 0
	for i := range nw.routers {
		r := &nw.routers[i]
		for d := range r.in {
			for vc := range r.in[d] {
				n += len(r.in[d][vc].buf)
			}
		}
		for f := range r.inj {
			n += len(r.inj[f].buf)
		}
		n += len(r.recv.buf)
	}
	return n
}

// TestResetKeepsGrownRings: rings sized for maximum-size packets double on
// demand under minimum-size ones; a recycled network must keep what it grew,
// so the same run after Reset grows no ring and - with the calendar's
// buckets refilled in place - allocates nothing, on the serial engine and on
// two shards (whose goroutine start-up is the allowance).
func TestResetKeepsGrownRings(t *testing.T) {
	shape := torus.New(4, 4, 4)
	p := shape.P()
	for _, shards := range []int{1, 2} {
		srcs := make([]Source, p)
		for n := range srcs {
			srcs[n] = &allToAllSource{self: int32(n), p: int32(p), size: MinPacketBytes}
		}
		nw, err := New(shape, DefaultParams(), srcs, countOnly{})
		if err != nil {
			t.Fatal(err)
		}
		initial := ringSlotsTotal(nw)
		run := func() {
			for _, s := range srcs {
				s.(*allToAllSource).next = 0
			}
			if err := nw.Reset(srcs, countOnly{}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := nw.RunSharded(RunSpec{MaxTime: 1 << 40, Shards: shards}); err != nil {
				t.Fatal(err)
			}
		}
		run()
		grown := ringSlotsTotal(nw)
		if grown <= initial {
			t.Fatalf("shards=%d: the workload grew no ring (%d slots): the test is vacuous", shards, grown)
		}
		allocs := testing.AllocsPerRun(5, run)
		if after := ringSlotsTotal(nw); after != grown {
			t.Errorf("shards=%d: repeated runs grew rings from %d to %d slots", shards, grown, after)
		}
		if allocs > float64(shards-1)*2 {
			t.Errorf("shards=%d: a repeated run allocates %.1f times, want <= %d", shards, allocs, (shards-1)*2)
		}
	}
}

// TestNewFootprint guards the working set: at the parent of the demand-sized
// rings, New on the paper's 512-node partition allocated 15,288,448 bytes
// (every ring sized for minimum-size packets, 27.5 KB a node); it must stay
// under a third of that, so the rings cannot creep back unnoticed.
func TestNewFootprint(t *testing.T) {
	const parentBytes = 15288448
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	nw, err := New(torus.New(8, 8, 8), DefaultParams(), nil, countOnly{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > parentBytes/3 {
		t.Errorf("New(8x8x8) allocated %d bytes, want <= %d (a third of %d)", got, parentBytes/3, parentBytes)
	}
	runtime.KeepAlive(nw)
}
