package experiments

import (
	"fmt"
	"math/rand"
	"time"

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

// Degrade produces the graceful-degradation curve the fault subsystem
// exists to answer: completion-time slowdown versus permanently dead links,
// for the Two Phase Schedule and the deterministic XYZ baseline on the
// 8x8x8 midplane. Adaptive rerouting should bend the curve; a schedule that
// cannot adapt pays the full serialization behind each dead ring.
func Degrade(cfg Config) (*report.Table, error) {
	paper := torus.New(8, 8, 8)
	run, scaled := cfg.scale(paper)
	ks := []int{0, 1, 2, 4, 8}
	strats := []collective.Strategy{collective.StratTPS, collective.StratXYZ}
	t := report.NewTable(
		fmt.Sprintf("Degradation: slowdown vs dead links on %v (large messages)", run),
		"Dead links", "TPS %peak", "TPS slowdown", "XYZ %peak", "XYZ slowdown")
	if scaled {
		t.AddNote("partition scaled from %v to %v (node budget)", paper, run)
	}
	// Each job carries its own kill schedule; a -faults spec passed on the
	// config would fight the sweep, so it is ignored here.
	cfg.Faults = ""
	m := cfg.largeFor(run)
	type job struct{ si, ki int }
	jobs := make([]job, 0, len(strats)*len(ks))
	for si := range strats {
		for ki := range ks {
			jobs = append(jobs, job{si, ki})
		}
	}
	flat, err := mapRows(cfg, jobs, func(cfg Config, cache *collective.NetCache, _ int, j job) (collective.Result, error) {
		start := time.Now()
		opts := cfg.opts(run, m)
		opts.Shards = cfg.shardsFor(run.P())
		if k := ks[j.ki]; k > 0 {
			fs, err := KillSchedule(run, k, cfg.Seed)
			if err != nil {
				return collective.Result{}, err
			}
			opts.Faults = fs.String()
		}
		res, err := cfg.runCached(strats[j.si], opts, cache)
		if err != nil {
			return res, fmt.Errorf("degrade: %s with %d dead links: %w", strats[j.si], ks[j.ki], err)
		}
		cfg.rowProgress("  degrade %s k=%d: %.1f%% of peak, %d reroutes (%s)",
			strats[j.si], ks[j.ki], res.PercentPeak, res.Reroutes, time.Since(start).Round(time.Millisecond))
		return res, nil
	})
	if err != nil {
		return t, err
	}
	series := make([][]collective.Result, len(strats))
	for i := range series {
		series[i] = flat[i*len(ks) : (i+1)*len(ks)]
	}
	for j, k := range ks {
		row := []any{k}
		for i := range strats {
			r := series[i][j]
			row = append(row, r.PercentPeak,
				fmt.Sprintf("%.2fx", float64(r.Time)/float64(series[i][0].Time)))
		}
		t.AddRow(row...)
	}
	t.AddNote("slowdown is completion time relative to the healthy run of the same strategy")
	return t, nil
}
