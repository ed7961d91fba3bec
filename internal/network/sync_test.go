package network

import (
	"reflect"
	"testing"

	"alltoall/internal/torus"
)

// TestSyncDifferentialMatrix is the sharded engine's byte-identity oracle:
// faults {off, on} x shards {1, 2, 4}, checker on, must reproduce the serial
// reference run of the same workload field for field - finish time, full
// statistics and every handler observation.
func TestSyncDifferentialMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	shape := torus.New(8, 4, 2)
	p := shape.P()
	for _, spec := range []string{"", "0:5:+x:kill;800:9:-y:down;6000:9:-y:up"} {
		par := DefaultParams()
		par.Check = true
		if spec != "" {
			fs, err := ParseFaults(spec)
			if err != nil {
				t.Fatal(err)
			}
			par.Faults = fs
		}
		var ref *Stats
		var refFin int64
		var refH *shardCountHandler
		for _, shards := range []int{1, 2, 4} {
			h := newShardCountHandler(p)
			nw, err := New(shape, par, shardTraffic(p, 42), h)
			if err != nil {
				t.Fatalf("faults=%q shards=%d: %v", spec, shards, err)
			}
			fin, err := nw.RunSharded(1<<40, shards)
			if err != nil {
				t.Fatalf("faults=%q shards=%d: %v", spec, shards, err)
			}
			st := nw.Stats()
			if ss := nw.SyncStats(); ss.Shards != shards {
				t.Errorf("faults=%q shards=%d: SyncStats reports %d shards", spec, shards, ss.Shards)
			}
			if ref == nil {
				ref, refFin, refH = st, fin, h
				continue
			}
			if fin != refFin {
				t.Errorf("faults=%q shards=%d: finish %d, serial %d", spec, shards, fin, refFin)
			}
			if !reflect.DeepEqual(st, ref) {
				t.Errorf("faults=%q shards=%d: stats diverge from serial\nserial: %+v\ngot:    %+v", spec, shards, ref, st)
			}
			if !reflect.DeepEqual(h, refH) {
				t.Errorf("faults=%q shards=%d: handler observations diverge from serial", spec, shards)
			}
		}
	}
}

// TestSyncCounters pins SyncStats at the engine level: a sharded run reports
// its windows, two barrier crossings a window plus the start and exit ones,
// and cross-shard traffic; a serial run stays all-zero.
func TestSyncCounters(t *testing.T) {
	shape := torus.New(8, 4, 2)
	p := shape.P()
	run := func(shards int) SyncStats {
		nw, err := New(shape, DefaultParams(), shardTraffic(p, 42), newShardCountHandler(p))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nw.RunSharded(1<<40, shards); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return nw.SyncStats()
	}
	if serial := run(1); serial != (SyncStats{Shards: 1}) {
		t.Errorf("serial SyncStats not quiescent: %+v", serial)
	}
	ss := run(4)
	if ss.Shards != 4 {
		t.Errorf("shards %d, want 4", ss.Shards)
	}
	if ss.HorizonAdvances == 0 || ss.HorizonAdvances%4 != 0 {
		t.Errorf("%d windows over 4 lockstep shards", ss.HorizonAdvances)
	}
	if want := 2*ss.HorizonAdvances + 2*4; ss.BlockedWaits != want {
		t.Errorf("%d barrier crossings for %d windows, want %d", ss.BlockedWaits, ss.HorizonAdvances, want)
	}
	if ss.CrossShardEvents == 0 || ss.CrossShardBytes == 0 {
		t.Errorf("no cross-shard traffic recorded: %+v", ss)
	}
}

// TestBlockedWaitSeesImbalance: with every packet confined to the first slab
// of a two-shard run, the second shard has nothing to do but wait at each
// window barrier for the first to finish its window. Those waits outlast the
// barrier's spin phase, so they must show in BlockedWaitNs - on the idle
// shard - which is what makes shard imbalance visible.
func TestBlockedWaitSeesImbalance(t *testing.T) {
	shape := torus.New(4, 4, 4)
	p := shape.P()
	half := int32(p / 2) // shard 0 owns ranks [0, half): whole Z planes
	srcs := make([]Source, p)
	for n := int32(0); n < half; n++ {
		specs := make([]PacketSpec, 0, 8*int(half))
		for round := 0; round < 8; round++ {
			for d := int32(0); d < half; d++ {
				if d != n {
					specs = append(specs, PacketSpec{Dst: d, Size: MaxPacketBytes, Det: true})
				}
			}
		}
		srcs[n] = &listSource{specs: specs}
	}
	nw, err := New(shape, DefaultParams(), srcs, countOnly{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.RunSharded(1<<40, 2); err != nil {
		t.Fatal(err)
	}
	ss := nw.SyncStats()
	if ss.Shards != 2 || ss.HorizonAdvances == 0 {
		t.Fatalf("not a sharded run: %+v", ss)
	}
	if idle := nw.engines[1].syncWaitNs; idle <= 0 {
		t.Errorf("idle shard timed no barrier wait (%d ns over %d crossings)", idle, nw.engines[1].syncWaits)
	}
	if ss.BlockedWaitNs < nw.engines[1].syncWaitNs {
		t.Errorf("BlockedWaitNs %d below the idle shard's own %d", ss.BlockedWaitNs, nw.engines[1].syncWaitNs)
	}
}
