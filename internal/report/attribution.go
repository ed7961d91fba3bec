package report

import (
	"fmt"
	"io"
	"strings"

	"alltoall/internal/observe"
	"alltoall/internal/torus"
)

// The attribution report ranks the attributionTop busiest links and draws
// its heatmap at most attributionHeat columns wide (longer runs are
// downsampled).
const (
	attributionTop  = 8
	attributionHeat = 64
)

// heatGlyphs maps utilization to a glyph ramp; index min(u*len, len-1).
var heatGlyphs = []rune(" .:-=+*#%@")

func heatGlyph(u float64) rune {
	i := int(u * float64(len(heatGlyphs)))
	if i < 0 {
		i = 0
	}
	if i >= len(heatGlyphs) {
		i = len(heatGlyphs) - 1
	}
	return heatGlyphs[i]
}

// WriteAttribution renders a bottleneck-attribution report from an observe
// Collector: per-dimension utilization with the saturated dimension flagged,
// the top links by occupancy, the head-of-line-blocking census, and a
// per-window utilization heatmap. This is the diagnostic the paper's
// Section 5 argument needs in one screen: on an asymmetric torus the X row
// pins at ~100% while Y/Z idle and the HoL counter is hot; a balanced
// schedule (TPS) shows three even rows and a cold counter.
func WriteAttribution(w io.Writer, c *observe.Collector) error {
	s := c.Summary()

	var b strings.Builder
	fmt.Fprintf(&b, "bottleneck attribution: %s, %d run(s), finish t=%d\n\n", s.Shape, s.Runs, s.Finish)

	dims := NewTable("link utilization by dimension", "dim", "util", "bytes", "flag")
	for d := 0; d < torus.NumDims; d++ {
		name := [torus.NumDims]string{"x", "y", "z"}[d]
		flag := ""
		if name == s.SaturatedDim {
			flag = "<- saturated"
		}
		dims.AddRow(name, fmt.Sprintf("%5.1f%%", 100*s.UtilByDim[d]), s.BytesByDim[d], flag)
	}
	dims.AddNote("max single link %.1f%%; VC split dyn0/dyn1/bubble = %d/%d/%d bytes",
		100*s.MaxLinkUtil, s.BytesByVC[0], s.BytesByVC[1], s.BytesByVC[2])
	if err := dims.Write(&b); err != nil {
		return err
	}
	b.WriteByte('\n')

	links := NewTable("busiest links", "rank", "node", "coord", "link", "bytes", "util")
	for i, l := range c.RankLinks(attributionTop) {
		links.AddRow(i+1, l.Node, fmt.Sprintf("(%d,%d,%d)", l.Coord[0], l.Coord[1], l.Coord[2]),
			l.Dim+l.Dir, l.Bytes, fmt.Sprintf("%5.1f%%", 100*l.Util))
	}
	if err := links.Write(&b); err != nil {
		return err
	}
	b.WriteByte('\n')

	fmt.Fprintf(&b, "head-of-line blocking: %d cross-dimension blocked passes", s.HoLBlocked)
	if s.HoLBlocked > 0 && s.SaturatedDim != "" {
		fmt.Fprintf(&b, " (packets stuck behind saturated %s links)", s.SaturatedDim)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "blocked-pass matrix [VC dim -> wanted dim]:\n")
	fmt.Fprintf(&b, "        want-x      want-y      want-z\n")
	for i := 0; i < torus.NumDims; i++ {
		fmt.Fprintf(&b, "  %s", [torus.NumDims]string{"x", "y", "z"}[i])
		for j := 0; j < torus.NumDims; j++ {
			fmt.Fprintf(&b, "  %10d", s.HoLMatrix[i][j])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "injection-FIFO blocked passes: %d; FIFO high-watermarks inj=%dB recv=%dB; CPU mean/max %.1f%%/%.1f%%\n\n",
		s.InjFIFOBlocked, s.MaxInjFIFOBytes, s.MaxRecvFIFOBytes, 100*s.MeanCPUUtil, 100*s.MaxCPUUtil)

	if s.FaultEvents > 0 {
		fmt.Fprintf(&b, "fault injection: %d transition(s) (%d degrade), peak %d link(s) dead\n",
			s.FaultEvents, s.DegradeEvents, s.DeadLinks)
		fmt.Fprintf(&b, "  dead-link ticks: %d (%.2f%% of link-time lost); forced credit returns: %d\n\n",
			s.DeadLinkTicks, 100*s.DegradedCompletion, s.ForcedCreditReturns)
	}

	writeHeatmap(&b, c, attributionHeat)

	_, err := io.WriteString(w, b.String())
	return err
}

// writeHeatmap renders per-dimension utilization over time, one row per
// dimension, one glyph per (possibly downsampled) window group.
func writeHeatmap(b *strings.Builder, c *observe.Collector, width int) {
	n := c.Windows()
	if n == 0 {
		fmt.Fprintf(b, "no windowed samples (run shorter than one window?)\n")
		return
	}
	// group = ceil(n/width) windows per glyph.
	group := (n + width - 1) / width
	cols := (n + group - 1) / group
	fmt.Fprintf(b, "utilization heatmap (ramp \"%s\", %d window(s)/col, window=%d):\n",
		string(heatGlyphs), group, c.Window())
	shape := c.Shape()
	for d := 0; d < torus.NumDims; d++ {
		series := c.DimSeries(d)
		fmt.Fprintf(b, "  %s |", [torus.NumDims]string{"x", "y", "z"}[d])
		links := shape.DimLinks(torus.Dim(d))
		for g := 0; g < cols; g++ {
			var bytes int64
			span := 0
			for i := g * group; i < (g+1)*group && i < n; i++ {
				if i < len(series) {
					bytes += series[i]
				}
				span++
			}
			u := 0.0
			if links > 0 && span > 0 {
				u = float64(bytes) / (float64(c.Window()) * float64(span) * float64(links))
			}
			b.WriteRune(heatGlyph(u))
		}
		b.WriteString("|\n")
	}
}
