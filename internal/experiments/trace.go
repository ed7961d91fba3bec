package experiments

import (
	"bytes"
	"encoding/json"
	"io"

	"alltoall/internal/observe"
)

// ObservedRun is one instrumented collective run recorded by a TraceSink:
// its identifying label, the run-level observation summary, and (when the
// sink keeps traces) the windowed JSONL trace.
type ObservedRun struct {
	Label   string
	Summary *observe.Summary
	Trace   []byte
}

// TraceSink collects an experiment's per-run observations (Config.Trace).
// runGrid records them once its grid has finished, in cell order, labelled
// as the table labels the cell - so the output is deterministic at any
// worker count and reads in the table's own order. Experiments sharing a
// sink run one after another (as aabench runs them).
type TraceSink struct {
	keepTrace bool
	runs      []ObservedRun
}

// NewTraceSink returns a sink; keepTrace retains each run's windowed JSONL
// trace (for -trace-out) in addition to its summary.
func NewTraceSink(keepTrace bool) *TraceSink {
	return &TraceSink{keepTrace: keepTrace}
}

// note records one completed run's observation.
func (t *TraceSink) note(label string, c *observe.Collector) error {
	r := ObservedRun{Label: label, Summary: c.Summary()}
	if t.keepTrace {
		var b bytes.Buffer
		if err := c.WriteTrace(&b); err != nil {
			return err
		}
		r.Trace = b.Bytes()
	}
	t.runs = append(t.runs, r)
	return nil
}

// Runs returns the recorded runs in the order their grids listed them.
func (t *TraceSink) Runs() []ObservedRun { return t.runs }

// traceRunRecord delimits one run's trace in the concatenated JSONL file.
type traceRunRecord struct {
	SchemaVersion int    `json:"schema_version"`
	Record        string `json:"record"` // "run"
	Label         string `json:"label"`
}

// WriteJSONL writes every kept trace as one JSONL stream: a "run" record
// naming each run, followed by that run's header and window records.
func (t *TraceSink) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, r := range t.Runs() {
		if err := enc.Encode(traceRunRecord{
			SchemaVersion: observe.SchemaVersion,
			Record:        "run",
			Label:         r.Label,
		}); err != nil {
			return err
		}
		if _, err := w.Write(r.Trace); err != nil {
			return err
		}
	}
	return nil
}
