package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"alltoall/internal/network"
	"alltoall/internal/torus"
)

// span is one timed interval at a boundary the bench itself crosses. Spans
// of one operation share Op; Parent is the span that caused this one (0 for
// an operation's root span). Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: begin and end on it do nothing, so the timed section of an
// untraced run never pays for tracing.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	nextOp int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh operation id (0 on a nil tracer).
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is what the spans of one name add up to.
type layerTime struct {
	Count int
	Total int64 // summed durations, ns
	Self  int64 // Total minus the part child spans cover, ns
}

// selfTimes folds spans by name. A span's self time is its duration minus
// the union of its children's intervals clipped to it, so two overlapping
// children (concurrent shards, say) are not subtracted twice.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		dur := s.End - s.Start
		if dur < 0 {
			continue // never closed: the operation failed part-way
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		lt := out[s.Name]
		lt.Count++
		lt.Total += dur
		lt.Self += dur - covered
		out[s.Name] = lt
	}
	return out
}

// engineSpans is the bench-owned network.Observer of the traced run: it
// records one "network.engine" span per simulated phase from the BeginRun
// and EndRun callbacks and hands the engine a sink that ignores every event.
// It is attached as a RunRequest extra, so the split of RunRequest into
// set-up, engine and result assembly is measured from outside collective.
type engineSpans struct {
	tr         *tracer
	parent, op int
	cur        int
}

func (e *engineSpans) BeginRun(torus.Shape, network.Params) {
	e.cur = e.tr.begin("network.engine", e.parent, e.op)
}
func (e *engineSpans) EndRun(int64)                           { e.tr.end(e.cur) }
func (e *engineSpans) Sink(_, _ int, _, _ int32) network.Sink { return nopSink{} }

type nopSink struct{}

func (nopSink) OnGrant(int64, int32, int, int8, int32)                         {}
func (nopSink) OnBlocked(int64, int32, int8, int8, uint8, int64, int32, int32) {}
func (nopSink) OnInjFIFO(int32, int, int32)                                    {}
func (nopSink) OnRecvFIFO(int32, int32)                                        {}
func (nopSink) OnCPU(int64, int32, int64)                                      {}
