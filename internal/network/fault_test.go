package network

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"alltoall/internal/parallel"
	"alltoall/internal/torus"
)

func TestParseFaultsRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"",
		"0:12:+x:kill",
		"0:12:+x:kill;5000:40:-y:down;9000:40:-y:up;0:7:+z:x4",
		"100:0:-z:x4096",
	} {
		fs, err := ParseFaults(spec)
		if err != nil {
			t.Fatalf("ParseFaults(%q): %v", spec, err)
		}
		fs2, err := ParseFaults(fs.String())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", fs.String(), err)
		}
		if !reflect.DeepEqual(fs, fs2) {
			t.Errorf("round trip of %q: %+v != %+v", spec, fs, fs2)
		}
	}
	// Whitespace tolerance: the canonical encoding of a padded spec matches
	// the unpadded one.
	a, err := ParseFaults(" 5:1:+y:down ;\t6:1:+y:up ")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ParseFaults("5:1:+y:down;6:1:+y:up")
	if a.String() != b.String() {
		t.Errorf("whitespace changed the schedule: %q vs %q", a, b)
	}
}

func TestParseFaultsRejects(t *testing.T) {
	for _, spec := range []string{
		"nonsense",
		"1:2:3",            // too few fields
		"1:2:+x:down:more", // too many fields
		"-1:2:+x:down",     // negative time
		"1:-2:+x:down",     // negative node
		"1:2:+w:down",      // unknown direction
		"1:2:+x:explode",   // unknown action
		"1:2:+x:x0",        // degrade factor below 1
		"1:2:+x:x4097",     // degrade factor above MaxDegradeFactor
		"1:2:+x:x",         // missing factor
	} {
		if _, err := ParseFaults(spec); err == nil {
			t.Errorf("ParseFaults(%q) accepted", spec)
		}
	}
}

// faultedNet builds an all-to-all network (192-byte packets) on the default
// machine, and the checked one-engine run that installs fs.
func faultedNet(t *testing.T, shape torus.Shape, fs *FaultSchedule) (*Network, RunSpec) {
	t.Helper()
	p := shape.P()
	srcs := make([]Source, p)
	for n := 0; n < p; n++ {
		srcs[n] = &allToAllSource{self: int32(n), p: int32(p), size: 192}
	}
	nw := buildNet(t, shape, DefaultParams(), srcs, countOnly{})
	return nw, RunSpec{MaxTime: 1 << 40, Shards: 1, Check: true, Faults: fs}
}

// faultRun performs one checked all-to-all run with the given schedule.
func faultRun(t *testing.T, shape torus.Shape, fs *FaultSchedule, shards int) (int64, *Stats) {
	t.Helper()
	nw, spec := faultedNet(t, shape, fs)
	spec.Shards = shards
	ft, _, err := nw.RunSharded(spec)
	if err != nil {
		t.Fatalf("faulted run (shards=%d): %v", shards, err)
	}
	st := nw.Stats()
	if st.PacketsInjected != st.TotalDelivered {
		t.Fatalf("delivery ledger broken: %d injected, %d delivered", st.PacketsInjected, st.TotalDelivered)
	}
	return ft, st
}

// TestZeroFaultScheduleByteIdentical pins the no-fault fast path: an empty
// (but non-nil) schedule must be byte-identical - finish time and full
// statistics - to no schedule at all, at shards 1 and 4.
func TestZeroFaultScheduleByteIdentical(t *testing.T) {
	shape := torus.New(4, 4, 2)
	for _, shards := range []int{1, 4} {
		ftNil, stNil := faultRun(t, shape, nil, shards)
		ftEmpty, stEmpty := faultRun(t, shape, &FaultSchedule{}, shards)
		if ftNil != ftEmpty {
			t.Errorf("shards=%d: empty schedule finish %d, nil %d", shards, ftEmpty, ftNil)
		}
		if !reflect.DeepEqual(stNil, stEmpty) {
			t.Errorf("shards=%d: empty schedule stats diverge from nil\nempty: %+v\nnil:   %+v",
				shards, stEmpty, stNil)
		}
		if stEmpty.DeadLinkTicks != 0 || stEmpty.Reroutes != 0 {
			t.Errorf("shards=%d: healthy run reports fault stats: dead=%d reroutes=%d",
				shards, stEmpty.DeadLinkTicks, stEmpty.Reroutes)
		}
	}
}

// TestFaultedRunIdenticalEverywhere is the determinism oracle for fault
// injection: a schedule mixing a permanent kill, a transient outage, and a
// degraded link must produce the same finish time and statistics at shards
// {1,2,4}, with the invariant checker on throughout.
func TestFaultedRunIdenticalEverywhere(t *testing.T) {
	shape := torus.New(4, 4, 2)
	fs, err := ParseFaults("0:5:+x:kill;300:12:-y:down;2500:12:-y:up;0:20:-z:x4")
	if err != nil {
		t.Fatal(err)
	}
	ftRef, stRef := faultRun(t, shape, fs, 1)
	if stRef.DeadLinkTicks == 0 {
		t.Error("schedule with a t=0 kill accrued no DeadLinkTicks")
	}
	for _, shards := range []int{2, 4} {
		ft, st := faultRun(t, shape, fs, shards)
		if ft != ftRef {
			t.Errorf("shards=%d: finish %d, serial %d", shards, ft, ftRef)
		}
		if !reflect.DeepEqual(st, stRef) {
			t.Errorf("shards=%d: stats diverge from serial\ngot: %+v\nref: %+v", shards, st, stRef)
		}
	}
}

// TestKilledLinkDegradesGracefully: a permanently killed torus link must not
// stop the collective - packets reroute the long way around the ring, the
// delivery ledger stays exactly-once (asserted inside faultRun), the checker
// stays clean, and completion is no faster than the healthy run.
func TestKilledLinkDegradesGracefully(t *testing.T) {
	shape := torus.New(4, 4, 2)
	ftHealthy, _ := faultRun(t, shape, nil, 1)
	fs, _ := ParseFaults("0:5:+x:kill")
	ft, st := faultRun(t, shape, fs, 1)
	if st.Reroutes == 0 {
		t.Error("killed +x ring link forced no reroutes")
	}
	if st.DeadLinkTicks != ft {
		t.Errorf("one link dead for the whole run: DeadLinkTicks %d, finish %d", st.DeadLinkTicks, ft)
	}
	// Band-tolerant monotonicity: adaptive rerouting under a fault can
	// serendipitously dodge contention the healthy schedule hits, so a small
	// speedup is legitimate; a large one would mean the fault leaked capacity.
	if ft < ftHealthy*95/100 {
		t.Errorf("killing a link sped the run up beyond the 5%% band: %d faulted vs %d healthy", ft, ftHealthy)
	}
}

// TestTransientOutageAccrues: a down/up pair accrues exactly the outage
// window, and a closed outage leaves no tail at end of run.
func TestTransientOutageAccrues(t *testing.T) {
	shape := torus.New(4, 4, 2)
	fs, _ := ParseFaults("100:3:+y:down;1300:3:+y:up")
	_, st := faultRun(t, shape, fs, 1)
	if st.DeadLinkTicks != 1200 {
		t.Errorf("outage [100,1300) accrued %d DeadLinkTicks, want 1200", st.DeadLinkTicks)
	}
}

// TestDegradedLinkSlowsRun: stretching a busy link's wire occupancy must cost
// time, never save it, and must not disturb the delivery ledger.
func TestDegradedLinkSlowsRun(t *testing.T) {
	shape := torus.New(4, 4, 2)
	ftHealthy, _ := faultRun(t, shape, nil, 1)
	// Node 0's live links on 4x4x2 (the z dimension is a 2-deep mesh): all of
	// x and y, +z only.
	fs, _ := ParseFaults("0:0:+x:x8;0:0:-x:x8;0:0:+y:x8;0:0:-y:x8;0:0:+z:x8")
	ft, st := faultRun(t, shape, fs, 1)
	if ft <= ftHealthy {
		t.Errorf("degrading every link of node 0 by 8x did not slow the run: %d vs %d healthy", ft, ftHealthy)
	}
	if st.DeadLinkTicks != 0 {
		t.Errorf("degraded (not dead) links accrued %d DeadLinkTicks", st.DeadLinkTicks)
	}
}

// TestMeshDeadLinkIsHonest: a mesh dimension has no long way around, so
// killing a link a packet needs must end in the standard stall diagnostic,
// not a hang or a silent drop.
func TestMeshDeadLinkIsHonest(t *testing.T) {
	shape := torus.NewMesh(4, 1, 1, false, false, false)
	fs, err := ParseFaults("0:1:+x:kill")
	if err != nil {
		t.Fatal(err)
	}
	nw, spec := faultedNet(t, shape, fs)
	_, _, err = nw.RunSharded(spec)
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("partitioned mesh run: %v, want stall diagnostic", err)
	}
}

func TestFaultScheduleValidation(t *testing.T) {
	shape := torus.NewMesh(4, 2, 2, false, false, false)
	for name, fs := range map[string]*FaultSchedule{
		"node out of range": {Events: []FaultEvent{{T: 0, Node: 99, Dir: 0, Action: FaultDown}}},
		"negative node":     {Events: []FaultEvent{{T: 0, Node: -1, Dir: 0, Action: FaultDown}}},
		"bad direction":     {Events: []FaultEvent{{T: 0, Node: 0, Dir: 9, Action: FaultDown}}},
		"mesh edge link":    {Events: []FaultEvent{{T: 0, Node: 0, Dir: 1, Action: FaultDown}}}, // node 0 has no -x
		"negative time":     {Events: []FaultEvent{{T: -5, Node: 0, Dir: 0, Action: FaultDown}}},
		"bad factor":        {Events: []FaultEvent{{T: 0, Node: 0, Dir: 0, Action: FaultDegrade, Factor: 0}}},
		"up after kill": {Events: []FaultEvent{
			{T: 10, Node: 0, Dir: 0, Action: FaultKill},
			{T: 20, Node: 0, Dir: 0, Action: FaultUp},
		}},
	} {
		if fs.Validate(shape) == nil {
			t.Errorf("%s: Validate accepted the schedule", name)
		}
		nw := buildNet(t, shape, DefaultParams(), nil, countOnly{})
		if _, _, err := nw.RunSharded(RunSpec{MaxTime: 1 << 40, Shards: 2, Faults: fs}); err == nil {
			t.Errorf("%s: schedule accepted", name)
		}
		if len(nw.fsched) != 0 {
			t.Errorf("%s: rejected schedule left %d events installed", name, len(nw.fsched))
		}
		// Rejected before the run claimed a core or re-sliced its engines.
		if n := parallel.CoresInUse(); n != 0 || len(nw.engines) != 1 {
			t.Errorf("%s: rejected schedule left %d cores registered, %d engines", name, n, len(nw.engines))
		}
	}
	// A kill only forbids a later Up of its own link; an Up at the kill's
	// own tick sorts before it (canonical order) and is no revival.
	for _, spec := range []string{"10:0:+x:kill;20:0:+y:up", "10:0:+x:up;10:0:+x:kill", "5:0:+x:down;10:0:+x:up;20:0:+x:kill"} {
		fs, err := ParseFaults(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Validate(shape); err != nil {
			t.Errorf("Validate(%q): %v", spec, err)
		}
	}
}

// TestFaultQuiescenceAudit drives the fault-aware quiescence checks directly:
// a clean faulted run passes, then corrupted outage bookkeeping is caught as
// a LinkLiveness violation.
func TestFaultQuiescenceAudit(t *testing.T) {
	fs, _ := ParseFaults("100:3:+y:down;1300:3:+y:up")
	nw, spec := faultedNet(t, torus.New(4, 4, 2), fs)
	if _, _, err := nw.RunSharded(spec); err != nil {
		t.Fatal(err)
	}
	if err := nw.checkQuiescence(); err != nil {
		t.Fatalf("clean faulted run not quiescent: %v", err)
	}
	lnk := linkIdx(3, 2) // node 3, +y
	nw.downSince[lnk] = 500
	err := nw.checkQuiescence()
	var v *Violation
	if !errors.As(err, &v) || v.Invariant != LinkLiveness {
		t.Fatalf("corrupted outage books not caught as link-liveness: %v", err)
	}
	nw.downSince[lnk] = -1
	nw.stretch[lnk] = 0
	err = nw.checkQuiescence()
	if !errors.As(err, &v) || v.Invariant != LinkLiveness {
		t.Fatalf("corrupted stretch not caught as link-liveness: %v", err)
	}
}

// TestFaultResetReplays: Reset must restore the healthy initial fault state so
// a re-run of the same network replays the faulted run byte-identically.
func TestFaultResetReplays(t *testing.T) {
	shape := torus.New(4, 4, 2)
	fs, _ := ParseFaults("0:5:+x:kill;300:12:-y:down;2500:12:-y:up")
	p := shape.P()
	mkSrcs := func() []Source {
		srcs := make([]Source, p)
		for n := 0; n < p; n++ {
			srcs[n] = &allToAllSource{self: int32(n), p: int32(p), size: 192}
		}
		return srcs
	}
	nw, spec := faultedNet(t, shape, fs)
	ft1, _, err := nw.RunSharded(spec)
	if err != nil {
		t.Fatal(err)
	}
	st1 := nw.Stats()
	if err := nw.Reset(mkSrcs(), countOnly{}); err != nil {
		t.Fatal(err)
	}
	ft2, _, err := nw.RunSharded(spec)
	if err != nil {
		t.Fatalf("re-run after Reset: %v", err)
	}
	if ft1 != ft2 {
		t.Errorf("re-run finish %d, first run %d", ft2, ft1)
	}
	if !reflect.DeepEqual(st1, nw.Stats()) {
		t.Errorf("re-run stats diverge:\nfirst: %+v\nre:    %+v", st1, nw.Stats())
	}
}
