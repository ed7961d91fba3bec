package observe

import (
	"bufio"
	"encoding/json"
	"io"

	"alltoall/internal/torus"
)

// TraceHeader is the first JSONL record of a trace: run identity and the
// units needed to interpret the window records that follow.
type TraceHeader struct {
	SchemaVersion int    `json:"schema_version"`
	Record        string `json:"record"` // "header"
	Shape         string `json:"shape"`
	Window        int64  `json:"window"`
	Runs          int    `json:"runs"`
	Finish        int64  `json:"finish"`
	Windows       int    `json:"windows"`
}

// TraceWindow is one time bucket of the run: traffic split by dimension and
// virtual channel, utilization fractions, head-of-line blocks, and CPU busy
// time charged in [window*index, window*(index+1)).
type TraceWindow struct {
	Record   string                 `json:"record"` // "window"
	Index    int                    `json:"index"`
	T        int64                  `json:"t"` // window start time
	BytesDim [torus.NumDims]int64   `json:"bytes_dim"`
	UtilDim  [torus.NumDims]float64 `json:"util_dim"`
	BytesVC  [3]int64               `json:"bytes_vc"`
	HoL      int64                  `json:"hol"`
	CPUBusy  int64                  `json:"cpu_busy"`
	// DeadTicks is the summed link-downtime inside the window (k links dead
	// for the whole window contribute k*Window); zero on healthy runs.
	DeadTicks int64 `json:"dead_ticks"`
}

// WriteTrace emits the collector's windowed series as JSONL: one header
// record, then one record per window in time order. Output is deterministic
// for a deterministic run - byte-identical at any shard count - which is
// what makes traces diffable across code changes (the golden-file tests
// rely on this).
func (c *Collector) WriteTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	n := c.Windows()
	if err := enc.Encode(TraceHeader{
		SchemaVersion: SchemaVersion,
		Record:        "header",
		Shape:         c.shape.String(),
		Window:        c.cfg.Window,
		Runs:          c.runs,
		Finish:        c.finish,
		Windows:       n,
	}); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		rec := TraceWindow{
			Record:    "window",
			Index:     i,
			T:         int64(i) * c.cfg.Window,
			HoL:       winAt(c.win.hol, i),
			CPUBusy:   winAt(c.win.cpu, i),
			DeadTicks: winAt(c.deadWin, i),
		}
		for d := 0; d < torus.NumDims; d++ {
			rec.BytesDim[d] = winAt(c.win.byDim[d], i)
			if links := c.shape.DimLinks(torus.Dim(d)); links > 0 {
				rec.UtilDim[d] = float64(rec.BytesDim[d]) / (float64(c.cfg.Window) * float64(links))
			}
		}
		for v := range rec.BytesVC {
			rec.BytesVC[v] = winAt(c.win.byVC[v], i)
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}
