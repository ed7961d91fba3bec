package conformance

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"alltoall/internal/collective"
	"alltoall/internal/network"
	"alltoall/internal/torus"
)

// linkExists reports whether node's output link in direction dir (2*dim,
// +1 for the negative direction) exists on shape: always on a wrapped
// dimension with more than one node, and away from the edges of a mesh one.
func linkExists(shape torus.Shape, node, dir int) bool {
	d := dir / 2
	c := shape.Coords(node)
	if shape.Wrap[d] {
		return shape.Size[d] > 1
	}
	if dir%2 == 0 {
		return c[d] < shape.Size[d]-1
	}
	return c[d] > 0
}

// randomFaults builds a seeded random fault schedule that is valid for the
// shape and keeps every destination reachable: permanent kills land only on
// wrapped dimensions (the long way around the ring stays available) with at
// most one per ring, transient outages always revive, and degrades are
// bounded. Everything else - which links, when, how hard - is random.
func randomFaults(shape torus.Shape, seed uint64) *network.FaultSchedule {
	rng := rand.New(rand.NewSource(int64(seed)<<20 ^ int64(shape.P())))
	p := shape.P()
	fs := &network.FaultSchedule{}
	taken := make(map[int]bool) // (node*6+dir) already scheduled
	pickLink := func() (int32, int, bool) {
		for try := 0; try < 64; try++ {
			n, d := rng.Intn(p), rng.Intn(6)
			if !linkExists(shape, n, d) || taken[n*6+d] {
				continue
			}
			taken[n*6+d] = true
			return int32(n), d, true
		}
		return 0, 0, false
	}

	var wrapped []int
	for d := 0; d < torus.NumDims; d++ {
		if shape.Wrap[d] {
			wrapped = append(wrapped, d)
		}
	}
	if len(wrapped) > 0 {
		usedRing := make(map[int]bool)
		for i, n := 0, rng.Intn(2); i < n; i++ {
			for try := 0; try < 64; try++ {
				node, d := rng.Intn(p), wrapped[rng.Intn(len(wrapped))]
				coord := shape.Coords(node)
				coord[d] = 0
				ring := d*p + shape.Rank(coord)
				if usedRing[ring] || taken[node*6+2*d] {
					continue
				}
				usedRing[ring] = true
				taken[node*6+2*d] = true
				fs.Events = append(fs.Events, network.FaultEvent{
					T: 0, Node: int32(node), Dir: 2 * d, Action: network.FaultKill,
				})
				break
			}
		}
	}
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		if node, d, ok := pickLink(); ok {
			down := int64(100 + rng.Intn(900))
			fs.Events = append(fs.Events,
				network.FaultEvent{T: down, Node: node, Dir: d, Action: network.FaultDown},
				network.FaultEvent{T: down + int64(400+rng.Intn(1400)), Node: node, Dir: d, Action: network.FaultUp})
		}
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		if node, d, ok := pickLink(); ok {
			fs.Events = append(fs.Events, network.FaultEvent{
				T: 0, Node: node, Dir: d, Action: network.FaultDegrade, Factor: int32(2 << rng.Intn(3)),
			})
		}
	}
	return fs
}

// chaosCompare holds a faulted configuration to the suite's three properties:
// serial, 2- and 4-shard runs are byte-identical (exactly-once delivery and the
// invariant audits are enforced inside each checked run), and faults never
// beat the healthy twin (the baseline) beyond the adaptive-routing noise band
// - on these small shapes a dead link occasionally steers the adaptive JSQ
// choice onto a serendipitously better path, so up to 5% improvement is
// tolerated, never more.
func chaosCompare(t *testing.T, strat collective.Strategy, shape torus.Shape, fs *network.FaultSchedule) {
	t.Helper()
	faulted := cell{strat: strat, shape: shape, shards: 1, seed: 1, faults: fs.String(), check: true}
	serial := runCell(t, faulted)
	for _, shards := range []int{2, 4} {
		faulted.shards = shards
		if sharded := runCell(t, faulted); !reflect.DeepEqual(serial, sharded) {
			t.Errorf("serial and %d-shard faulted runs differ:\nserial:  %+v\nsharded: %+v", shards, serial, sharded)
		}
	}
	if healthy := baseline(t, strat, shape); serial.Time < healthy.Time*95/100 {
		t.Errorf("faults improved completion beyond the noise band: faulted %d, healthy %d (schedule %q)",
			serial.Time, healthy.Time, fs)
	}
}

// TestChaosMatrix runs randomized seeded fault schedules across the full
// conformance matrix - every strategy, torus and mesh shapes, shards 1, 2
// and 4 - with the invariant checker on.
func TestChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	seeds := []uint64{3}
	if full() {
		seeds = []uint64{3, 17, 99}
	}
	for _, shape := range shapeMatrix() {
		for _, strat := range strategies() {
			for _, seed := range seeds {
				fs := randomFaults(shape, seed)
				if len(fs.Events) == 0 {
					continue
				}
				t.Run(fmt.Sprintf("%s/%v/seed=%d", strat, shape, seed), func(t *testing.T) {
					chaosCompare(t, strat, shape, fs)
				})
			}
		}
	}
}

// TestChaosSoak drives many random schedules through one torus
// configuration, accumulating confidence that no schedule shape trips an
// invariant or breaks cross-shard identity. The full matrix (CI's chaos
// job) quadruples the seed count.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	n := uint64(8)
	if full() {
		n = 32
	}
	shape := torus.New(4, 4, 4)
	for seed := uint64(100); seed < 100+n; seed++ {
		fs := randomFaults(shape, seed)
		if len(fs.Events) == 0 {
			continue
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			chaosCompare(t, collective.StratAR, shape, fs)
		})
	}
}
