package experiments

import (
	"fmt"
	"math/rand"

	"alltoall/internal/collective"
	"alltoall/internal/network"
	"alltoall/internal/report"
	"alltoall/internal/torus"
)

// KillSchedule returns a deterministic t=0 fault schedule permanently
// killing k distinct output links of shape, chosen by seed. Kills land only
// on wrapped dimensions and at most one per torus ring, so the long way
// around every ring stays available and no destination becomes unreachable.
func KillSchedule(shape torus.Shape, k int, seed uint64) (*network.FaultSchedule, error) {
	type cand struct {
		node int32
		dim  int
	}
	p := shape.P()
	var cands []cand
	for phys := 0; phys < p; phys++ {
		for d := 0; d < torus.NumDims; d++ {
			if shape.Wrap[d] {
				cands = append(cands, cand{int32(phys), d})
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)*0x9E3779B9 + 0xFA017))
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	fs := &network.FaultSchedule{}
	usedRing := make(map[int]bool)
	for _, c := range cands {
		if len(fs.Events) == k {
			break
		}
		// The ring a link belongs to is its node's coordinate with the
		// link's dimension zeroed; one kill per ring keeps it a path.
		coord := shape.Coords(int(c.node))
		coord[c.dim] = 0
		ring := c.dim*p + shape.Rank(coord)
		if usedRing[ring] {
			continue
		}
		usedRing[ring] = true
		fs.Events = append(fs.Events, network.FaultEvent{
			T: 0, Node: c.node, Dir: 2 * c.dim, Action: network.FaultKill,
		})
	}
	if len(fs.Events) < k {
		return nil, fmt.Errorf("experiments: %v has only %d independent torus rings, cannot kill %d links",
			shape, len(fs.Events), k)
	}
	return fs, nil
}

// degrade produces the graceful-degradation curve the fault subsystem
// exists to answer: completion-time slowdown versus permanently dead links,
// for the Two Phase Schedule and the deterministic XYZ baseline on the
// 8x8x8 midplane. Adaptive rerouting should bend the curve; a schedule that
// cannot adapt pays the full serialization behind each dead ring. The grid
// is one cell a (strategy, kill count) run, strategy-major.
func degrade() experiment {
	ks := []int{0, 1, 2, 4, 8}
	strats := []collective.Strategy{collective.StratTPS, collective.StratXYZ}
	e := experiment{id: "degrade"}
	for _, strat := range strats {
		for _, k := range ks {
			e.cells = append(e.cells, cell{strat: strat, paper: torus.New(8, 8, 8),
				tune: func(o *collective.Options) error {
					fs, err := KillSchedule(o.Shape, k, o.Seed)
					o.Faults = fs.String()
					return err
				}})
		}
	}
	e.render = func(outs []outcome) *report.Table {
		healthy := outs[0]
		t := report.NewTable(
			fmt.Sprintf("Degradation: slowdown vs dead links on %v (large messages)", healthy.run),
			"Dead links", "TPS %peak", "TPS slowdown", "XYZ %peak", "XYZ slowdown")
		if healthy.run != healthy.paper {
			t.AddNote("partition scaled from %v to %v (node budget)", healthy.paper, healthy.run)
		}
		for j, k := range ks {
			r := []any{k}
			for i := range strats {
				base, res := outs[i*len(ks)].res, outs[i*len(ks)+j].res
				r = append(r, res.PercentPeak, fmt.Sprintf("%.2fx", float64(res.Time)/float64(base.Time)))
			}
			t.AddRow(r...)
		}
		t.AddNote("slowdown is completion time relative to the healthy run of the same strategy")
		return t
	}
	return e
}
