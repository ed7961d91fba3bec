package network

import (
	"reflect"
	"testing"

	"alltoall/internal/torus"
)

// allRun drives one small deterministic all-to-all on a 4x4x2 torus.
func allRun(t *testing.T, nw *Network) int64 {
	t.Helper()
	fin, err := nw.Run(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	return fin
}

func smallAllToAll(t *testing.T) *Network {
	t.Helper()
	shape := torus.New(4, 4, 2)
	p := shape.P()
	src := make([]Source, p)
	for n := 0; n < p; n++ {
		specs := make([]PacketSpec, 0, p-1)
		for d := 0; d < p; d++ {
			if d != n {
				specs = append(specs, PacketSpec{Dst: int32(d), Size: 256, Payload: 240})
			}
		}
		src[n] = &listSource{specs: specs}
	}
	return buildNet(t, shape, DefaultParams(), src, newCountHandler(p))
}

// TestStatsSnapshot pins the Stats contract: the returned snapshot must be
// detached from live engine state. Returning the internal struct used to
// let Reset (a sweep's next point) silently zero a previously captured
// result - the VMesh strategy's phase-1 capture read phase-2 numbers.
func TestStatsSnapshot(t *testing.T) {
	nw := smallAllToAll(t)
	allRun(t, nw)
	st := nw.Stats()
	saved := *st
	savedLinkBusy := append([]int64(nil), st.LinkBusy...)

	// Mutating the snapshot must not reach the engine...
	st.PacketsInjected = -1
	st.LinkBusy[0] = -1
	if again := nw.Stats(); again.PacketsInjected == -1 || again.LinkBusy[0] == -1 {
		t.Fatalf("Stats returned live state: snapshot mutation visible in a later call")
	}

	// ...and a Reset + rerun must not reach the snapshot.
	st.PacketsInjected = saved.PacketsInjected
	st.LinkBusy[0] = savedLinkBusy[0]
	nw2 := smallAllToAll(t)
	allRun(t, nw2)
	if st.PacketsInjected != saved.PacketsInjected || !reflect.DeepEqual(st.LinkBusy, savedLinkBusy) {
		t.Fatalf("captured snapshot changed after another run")
	}
}

// countSink counts every observer callback (the simplest useful Sink).
type countSink struct {
	grants, blocked, inj, recv, cpu int64
	bytes                           int64
}

type countObserver struct {
	begun, ended int
	sinks        []*countSink
}

func (o *countObserver) BeginRun(shape torus.Shape, par Params) { o.begun++ }
func (o *countObserver) Sink(shard, shards int, lo, hi int32) Sink {
	for len(o.sinks) <= shard {
		o.sinks = append(o.sinks, &countSink{})
	}
	return o.sinks[shard]
}
func (o *countObserver) EndRun(finish int64) { o.ended++ }

func (s *countSink) total() countSink {
	return countSink{grants: s.grants, blocked: s.blocked, inj: s.inj, recv: s.recv, cpu: s.cpu, bytes: s.bytes}
}

func (s *countSink) OnGrant(now int64, node int32, dir int, vc int8, size int32) {
	s.grants++
	s.bytes += int64(size)
}
func (s *countSink) OnBlocked(now int64, node int32, inDir, vc int8, want uint8, since int64, qCount, win int32) {
	s.blocked++
}
func (s *countSink) OnInjFIFO(node int32, fifo int, bytes int32) { s.inj++ }
func (s *countSink) OnRecvFIFO(node int32, bytes int32)          { s.recv++ }
func (s *countSink) OnCPU(now int64, node int32, cost int64)     { s.cpu++ }

// TestObserverHooksFire sanity-checks every hook against run statistics:
// grants and granted bytes must match GrantsByVC and the LinkBusy total.
func TestObserverHooksFire(t *testing.T) {
	obs := &countObserver{}
	nw := smallAllToAll(t)
	nw.SetObserver(obs)
	allRun(t, nw)
	if obs.begun != 1 || obs.ended != 1 {
		t.Fatalf("BeginRun/EndRun = %d/%d, want 1/1", obs.begun, obs.ended)
	}
	s := obs.sinks[0]
	st := nw.Stats()
	var grants, busy int64
	for _, g := range st.GrantsByVC {
		grants += g
	}
	for _, b := range st.LinkBusy {
		busy += b
	}
	if s.grants != grants {
		t.Errorf("OnGrant fired %d times, stats count %d grants", s.grants, grants)
	}
	if s.bytes != busy {
		t.Errorf("OnGrant bytes %d, LinkBusy total %d", s.bytes, busy)
	}
	if s.recv == 0 || s.inj == 0 || s.cpu == 0 {
		t.Errorf("hooks silent: inj=%d recv=%d cpu=%d", s.inj, s.recv, s.cpu)
	}
}

// TestObserverSerialShardedCounts: the same observer totals at any shard
// count (per-shard sinks summed), and identical simulation results.
func TestObserverSerialShardedCounts(t *testing.T) {
	sum := func(o *countObserver) countSink {
		var tot countSink
		for _, s := range o.sinks {
			tot.grants += s.grants
			tot.blocked += s.blocked
			tot.inj += s.inj
			tot.recv += s.recv
			tot.cpu += s.cpu
			tot.bytes += s.bytes
		}
		return tot
	}
	serial := &countObserver{}
	nw := smallAllToAll(t)
	nw.SetObserver(serial)
	finSerial := allRun(t, nw)

	sharded := &countObserver{}
	nw2 := smallAllToAll(t)
	nw2.SetObserver(sharded)
	finSharded, err := nw2.RunSharded(1<<30, 4)
	if err != nil {
		t.Fatal(err)
	}
	if finSerial != finSharded {
		t.Fatalf("finish diverged: %d vs %d", finSerial, finSharded)
	}
	if sum(serial) != sum(sharded) {
		t.Errorf("observer totals diverged:\nserial:  %+v\nsharded: %+v", sum(serial), sum(sharded))
	}
}

// TestQuietSkipFires holds the quiet-queue skip on: a saturated all-to-all
// must elide queue visits on the plain engine (so a later change cannot
// disable the skip silently), elide none under an observer - OnBlocked has to
// fire on every failed visit - and produce the same statistics either way,
// which is the skip's standing differential oracle.
func TestQuietSkipFires(t *testing.T) {
	run := func(obs Observer) (*Stats, int64) {
		shape := torus.New(4, 4, 4)
		p := shape.P()
		srcs := make([]Source, p)
		for n := range srcs {
			srcs[n] = &allToAllSource{self: int32(n), p: int32(p), size: MaxPacketBytes}
		}
		nw := buildNet(t, shape, DefaultParams(), srcs, newCountHandler(p))
		nw.SetObserver(obs)
		allRun(t, nw)
		return nw.Stats(), nw.engines[0].quietSkips
	}
	plain, skips := run(nil)
	if skips == 0 {
		t.Error("the quiet-queue skip never fired on a saturated 4x4x4 all-to-all")
	}
	obs := &countObserver{}
	observed, obsSkips := run(obs)
	if obsSkips != 0 {
		t.Errorf("%d queue visits skipped under an observer", obsSkips)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("statistics differ between the skipping and the full-scan run:\nplain:    %+v\nobserved: %+v", plain, observed)
	}
	if blocked := obs.sinks[0].blocked; blocked <= skips {
		t.Errorf("full scans reported %d blocked entries, fewer than the %d queue visits the plain run skipped", blocked, skips)
	}
}
