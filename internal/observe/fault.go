package observe

import (
	"sort"

	"alltoall/internal/network"
)

// Fault observability: the Collector implements network.FaultSink, so a
// faulted run (network.Params.Faults) reports every effective link transition
// into the owning shard's sink. At EndRun the transitions fold into
// per-window dead-link-ticks (the fault state over time, alongside the
// traffic series) and the run-level outage aggregates the Summary and the
// attribution report surface: how many transitions fired, how many links
// were dead at the worst moment, how much link-time the outages cost, and
// the degraded-completion fraction (lost link-time over total link-time).

// faultPoint is one recorded transition.
type faultPoint struct {
	t      int64
	node   int32
	factor int32
	dir    int8
	action network.FaultAction
}

// OnFault implements network.FaultSink: record the transition; interval
// accounting happens at EndRun when the run's finish time is known.
func (s *sink) OnFault(now int64, node int32, dir int, action network.FaultAction, factor int32) {
	s.win.faults = append(s.win.faults, faultPoint{t: now, node: node, dir: int8(dir), action: action, factor: factor})
}

// foldFaults turns this run's transitions into outage intervals. Sinks are
// drained in shard order and the combined list re-sorted into the canonical
// (t, node, dir, action) order - the same total order the engine applied the
// faults in - so the fold is byte-identical at any shard count. Links still
// down at finish close their interval there, mirroring the engine's
// closeFaultStats, which keeps Summary.DeadLinkTicks equal to
// Stats.DeadLinkTicks.
func (c *Collector) foldFaults(finish int64) {
	c.ftrans = c.ftrans[:0]
	for _, s := range c.sinks {
		c.ftrans = append(c.ftrans, s.win.faults...)
		s.win.faults = s.win.faults[:0]
	}
	if len(c.ftrans) == 0 {
		return
	}
	sort.Slice(c.ftrans, func(i, j int) bool {
		a, b := c.ftrans[i], c.ftrans[j]
		if a.t != b.t {
			return a.t < b.t
		}
		if a.node != b.node {
			return a.node < b.node
		}
		if a.dir != b.dir {
			return a.dir < b.dir
		}
		return a.action < b.action
	})
	c.faultEvents += int64(len(c.ftrans))
	if c.openDown == nil {
		c.openDown = make(map[int32]int64)
	}
	cur := 0
	for _, f := range c.ftrans {
		key := f.node*int32(network.NumDirs) + int32(f.dir)
		switch f.action {
		case network.FaultDown, network.FaultKill:
			if _, open := c.openDown[key]; !open {
				c.openDown[key] = f.t
				cur++
				if cur > c.peakDead {
					c.peakDead = cur
				}
			}
		case network.FaultUp:
			if start, open := c.openDown[key]; open {
				c.accrueDead(start, f.t)
				delete(c.openDown, key)
				cur--
			}
		case network.FaultDegrade:
			c.degradeEvents++
		}
	}
	// Outage tails: links still down when the run finished. Map order is
	// nondeterministic but accrual is pure addition, so the series and totals
	// are not.
	for key, start := range c.openDown {
		c.accrueDead(start, finish)
		delete(c.openDown, key)
	}
}

// accrueDead charges the outage interval [from, to) to the dead-link total
// and to each trace window it overlaps.
func (c *Collector) accrueDead(from, to int64) {
	if to <= from {
		return
	}
	c.deadLinkTicks += to - from
	w := c.cfg.Window
	for t := from; t < to; {
		end := (t/w + 1) * w
		if end > to {
			end = to
		}
		idx := int(t / w)
		c.deadWin = growI64(c.deadWin, idx)
		c.deadWin[idx] += end - t
		t = end
	}
}
