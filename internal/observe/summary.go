package observe

import (
	"sort"

	"alltoall/internal/network"
	"alltoall/internal/torus"
)

// Summary is the run-level digest of a Collector: the stable, documented
// field set callers get back on Result.Observed and that aabench embeds in
// its JSON output. Fields marshal under the snake_case names shown;
// SchemaVersion governs their layout.
type Summary struct {
	SchemaVersion int    `json:"schema_version"`
	Shape         string `json:"shape"`
	Runs          int    `json:"runs"`   // network runs folded in, one per collective
	Finish        int64  `json:"finish"` // total simulated time across runs

	// BytesByDim[d] is the total wire bytes carried by links of torus
	// dimension d; BytesByVC[v] splits the same traffic by virtual channel
	// (dyn0, dyn1, bubble escape).
	BytesByDim [torus.NumDims]int64 `json:"bytes_by_dim"`
	BytesByVC  [network.NumVC]int64 `json:"bytes_by_vc"`

	// UtilByDim[d] is the mean occupancy fraction of dimension d's links
	// over the observed time; MaxLinkUtil is the single busiest link's
	// fraction and SaturatedDim names its dimension ("x", "y", "z", or ""
	// when nothing moved). On an asymmetric torus under adaptive routing
	// the signature is one dimension near 1.0 with the others far below.
	UtilByDim    [torus.NumDims]float64 `json:"util_by_dim"`
	MaxLinkUtil  float64                `json:"max_link_util"`
	SaturatedDim string                 `json:"saturated_dim"`

	// HoLBlocked counts arbitration passes in which a dynamic-VC packet
	// needing exactly one other dimension stayed structurally blocked
	// (beyond HoLDelay) with victims queued behind it (at least
	// HoLMinQueue deep) - head-of-line blocking attributable to
	// the wanted dimension's saturation, calibrated to be exactly zero on
	// a balanced machine. HoLMatrix[i][j] is the unfiltered [occupied-VC
	// dim][wanted dim] census of single-want blocked passes, including
	// the diagonal (same-dimension congestion, which is load, not HoL).
	// InjFIFOBlocked counts blocked passes of injection-FIFO head packets.
	HoLBlocked     int64                               `json:"hol_blocked"`
	HoLMatrix      [torus.NumDims][torus.NumDims]int64 `json:"hol_matrix"`
	InjFIFOBlocked int64                               `json:"inj_fifo_blocked"`

	// FIFO depth high-watermarks (bytes), max over nodes, and CPU
	// occupancy fractions over the observed time.
	MaxInjFIFOBytes  int32   `json:"max_inj_fifo_bytes"`
	MaxRecvFIFOBytes int32   `json:"max_recv_fifo_bytes"`
	MeanCPUUtil      float64 `json:"mean_cpu_util"`
	MaxCPUUtil       float64 `json:"max_cpu_util"`

	// Fault injection (all zero on healthy runs). FaultEvents counts
	// effective link transitions, DegradeEvents the bandwidth-degrade subset,
	// DeadLinks the peak number of simultaneously dead links, DeadLinkTicks
	// the summed link-downtime (equal to network.Stats.DeadLinkTicks), and
	// DegradedCompletion the fraction of the machine's total link-time lost
	// to outages: DeadLinkTicks / (Finish * links).
	FaultEvents        int64   `json:"fault_events"`
	DegradeEvents      int64   `json:"degrade_events"`
	DeadLinks          int     `json:"dead_links"`
	DeadLinkTicks      int64   `json:"dead_link_ticks"`
	DegradedCompletion float64 `json:"degraded_completion"`
}

// LinkUtil is one link's aggregate in a utilization ranking.
type LinkUtil struct {
	Node  int32       `json:"node"`
	Coord torus.Coord `json:"coord"`
	Dim   string      `json:"dim"`
	Dir   string      `json:"dir"` // "+" or "-"
	Bytes int64       `json:"bytes"`
	Util  float64     `json:"util"`
}

func dimName(d int) string { return [torus.NumDims]string{"x", "y", "z"}[d] }

// Summary digests the collector's current totals. Utilization fractions use
// the accumulated finish time, so a collector spanning several runs reports
// occupancy over all observed time. A collector
// that never observed a run returns the zero summary.
func (c *Collector) Summary() *Summary {
	if c.shape == (torus.Shape{}) {
		// Never bound to a machine: nothing was observed, and the unset
		// shape has no link census to normalize by.
		return &Summary{SchemaVersion: SchemaVersion}
	}
	s := &Summary{
		SchemaVersion:  SchemaVersion,
		Shape:          c.shape.String(),
		Runs:           c.runs,
		Finish:         c.finish,
		HoLBlocked:     c.win.holBlocked,
		HoLMatrix:      c.win.holMat,
		InjFIFOBlocked: c.win.injBlocked,

		FaultEvents:   c.faultEvents,
		DegradeEvents: c.degradeEvents,
		DeadLinks:     c.peakDead,
		DeadLinkTicks: c.deadLinkTicks,
	}
	if links := c.shape.LinkCount(); links > 0 && c.finish > 0 {
		s.DegradedCompletion = float64(c.deadLinkTicks) / (float64(c.finish) * float64(links))
	}
	var maxLinkBytes int64
	maxLinkDim := -1
	for i, vb := range c.linkVC {
		var total int64
		for v, b := range vb {
			total += b
			s.BytesByVC[v] += b
		}
		d := (i % network.NumDirs) / 2
		s.BytesByDim[d] += total
		if total > maxLinkBytes {
			maxLinkBytes = total
			maxLinkDim = d
		}
	}
	if c.finish > 0 {
		for d := 0; d < torus.NumDims; d++ {
			if n := c.shape.DimLinks(torus.Dim(d)); n > 0 {
				s.UtilByDim[d] = float64(s.BytesByDim[d]) / (float64(c.finish) * float64(n))
			}
		}
		s.MaxLinkUtil = float64(maxLinkBytes) / float64(c.finish)
	}
	if maxLinkDim >= 0 {
		s.SaturatedDim = dimName(maxLinkDim)
	}
	for _, b := range c.injHW {
		if b > s.MaxInjFIFOBytes {
			s.MaxInjFIFOBytes = b
		}
	}
	for _, b := range c.recvHW {
		if b > s.MaxRecvFIFOBytes {
			s.MaxRecvFIFOBytes = b
		}
	}
	if c.finish > 0 && c.p > 0 {
		var sum, max int64
		for _, b := range c.cpu {
			sum += b
			if b > max {
				max = b
			}
		}
		s.MeanCPUUtil = float64(sum) / (float64(c.finish) * float64(c.p))
		s.MaxCPUUtil = float64(max) / float64(c.finish)
	}
	return s
}

// RankLinks returns the top busiest links by total bytes, ties broken by
// (node, dir) for determinism. top <= 0 returns all links that carried
// traffic.
func (c *Collector) RankLinks(top int) []LinkUtil {
	var out []LinkUtil
	for i, vb := range c.linkVC {
		var total int64
		for _, b := range vb {
			total += b
		}
		if total == 0 {
			continue
		}
		node := int32(i / network.NumDirs)
		dir := i % network.NumDirs
		sign := "+"
		if dir&1 == 1 {
			sign = "-"
		}
		u := 0.0
		if c.finish > 0 {
			u = float64(total) / float64(c.finish)
		}
		out = append(out, LinkUtil{
			Node:  node,
			Coord: c.shape.Coords(int(node)),
			Dim:   dimName(dir / 2),
			Dir:   sign,
			Bytes: total,
			Util:  u,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Dim+out[i].Dir < out[j].Dim+out[j].Dir
	})
	if top > 0 && len(out) > top {
		out = out[:top]
	}
	return out
}

// Windows returns the number of complete-or-partial trace windows recorded.
func (c *Collector) Windows() int {
	n := len(c.win.hol)
	for d := range c.win.byDim {
		if len(c.win.byDim[d]) > n {
			n = len(c.win.byDim[d])
		}
	}
	if len(c.win.cpu) > n {
		n = len(c.win.cpu)
	}
	if len(c.deadWin) > n {
		n = len(c.deadWin)
	}
	return n
}

// DimSeries returns the per-window wire-byte series for torus dimension d;
// windows beyond the series length carried zero bytes. The slice is a copy:
// callers may hold or mutate it without corrupting the collector, and later
// collection does not mutate it behind the caller's back.
func (c *Collector) DimSeries(d int) []int64 {
	return append([]int64(nil), c.win.byDim[d]...)
}

// winAt reads series s at window i, treating short series as zero-padded.
func winAt(s []int64, i int) int64 {
	if i < len(s) {
		return s[i]
	}
	return 0
}
