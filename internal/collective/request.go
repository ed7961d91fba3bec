package collective

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"alltoall/internal/network"
	"alltoall/internal/torus"
)

// Request is the one description of a simulation run: everything that
// determines a run's Result, and nothing that doesn't. It is value-comparable
// and is the form shared by the public API (alltoall.Run), the aasim
// CLI, the experiments engine, and the aaserve HTTP service - the same
// Request, wherever it is submitted, produces a byte-identical Result, which
// is what makes Key() a sound cache and bench identity. Options embeds it and
// adds only what a Request cannot say.
//
// Zero values mean "library default" throughout (Run fills them),
// so the zero Request plus Strategy, Shape and MsgBytes is a complete job.
//
// The struct tags are the aaserve wire form: snake_case fields, the shape in
// the Parse/Canon grammar, zero values omitted. The layout is covered by the
// serve schema version. Keys the struct does not name are ignored on decode,
// so requests still carrying the retired event_queue, coalesce or sync
// selectors parse to the same Request as ones without, and so does the
// retired observation window. Key is this wire form, so a field's tag is its
// whole identity.
type Request struct {
	Strategy Strategy    `json:"strategy"`
	Shape    torus.Shape `json:"shape"`
	MsgBytes int         `json:"msg_bytes"`      // per-pair payload m, >= 1
	Seed     uint64      `json:"seed,omitempty"` // destination-order randomization

	// Burst is the number of packets injected per destination visit in the
	// direct strategies (the paper's tuning parameter; default 2).
	Burst int `json:"burst,omitempty"`
	// PaceBurst is the injection token-bucket depth in packets (default 2).
	// Every strategy paces injection at the partition's bisection rate; the
	// Throttle strategy uses a zero-depth (strict) bucket. See pacer.go for
	// why pacing is always on in this substrate.
	PaceBurst int `json:"pace_burst,omitempty"`
	// PaceFraction scales the injection rate relative to the bisection
	// limit (default 0.95). Slightly under 1 keeps bottleneck links at the
	// knee of their throughput curve.
	PaceFraction float64 `json:"pace_fraction,omitempty"`
	// Unpaced disables injection pacing entirely (ablation only; expect
	// congestion collapse on saturating workloads).
	Unpaced bool `json:"unpaced,omitempty"`

	// Shards is how many engines advance the simulation in lockstep windows
	// (see network.RunSharded): 0 = the engine decides (one engine below 128
	// nodes or while other runs and pool workers of this process occupy the
	// cores, from 128 nodes at least two for a run alone), n = exactly n.
	// It only schedules the run: results are byte-identical at any value,
	// which is why it is not part of Key.
	Shards int `json:"shards,omitempty"`
	// Check enables the simulator's runtime invariant checker
	// (network.RunSpec.Check): every event is validated against the
	// machine's conservation laws and a completed run must reach full
	// quiescence. A violation fails the run with a node/time-stamped
	// diagnostic. Costs about 2x simulation time (the bench's
	// check.on_ratio); meant for tests and CI, not sweeps.
	Check bool `json:"check,omitempty"`

	// Faults is a deterministic link-fault schedule in the ParseFaults
	// grammar ("t:node:dir:action;..."); "" faults nothing and is
	// byte-identical to a run without it. The textual form is the only one
	// (the grammar is a String/Parse fixed point), so Requests stay
	// value-comparable and JSON-portable; Validate parses it and checks it
	// against Shape (network.FaultSchedule.Validate), and the network run is
	// handed it (network.RunSpec.Faults). Links go down, come back, die
	// permanently, or degrade at scheduled times, and packets reroute via
	// the adaptive paths and the escape bubble channel. Every strategy is one
	// network run, so the schedule's clock is the run's.
	Faults string `json:"faults,omitempty"`

	// MaxTime aborts runs that exceed this many time units (0 = generous
	// default based on the peak time).
	MaxTime int64 `json:"max_time,omitempty"`

	// TPSLinear forces the Two Phase Schedule's linear (phase 1) dimension;
	// 0 selects it with the paper's rule (symmetric planar dims if
	// possible, else the longest dimension).
	TPSLinear LinearDim `json:"tps_linear,omitempty"`
	// TPSCreditWindow, when positive, enables the paper's Section 5
	// credit-based flow control for TPS: each source may have at most this
	// many un-credited phase-1 packets outstanding at each intermediate,
	// bounding intermediate forwarding memory. Must be >= the credit batch.
	TPSCreditWindow int `json:"tps_credit_window,omitempty"`
	// TPSCreditBatch is the number of forwarded packets per returned
	// credit packet (default 10, the paper's ~1% bandwidth overhead).
	TPSCreditBatch int `json:"tps_credit_batch,omitempty"`

	// VMeshRows/Cols force the virtual mesh factorization P = Cols x Rows
	// (Pvx = Cols row width, Pvy = Rows column height); 0 selects the most
	// balanced factorization.
	VMeshRows int `json:"vmesh_rows,omitempty"`
	VMeshCols int `json:"vmesh_cols,omitempty"`
	// VMeshMapOrder chooses which torus dimension consecutive virtual ranks
	// sweep first, as a 3-letter permutation ("" = "xyz": rows fill X-lines,
	// then XY planes). The paper's 4096-node experiment maps 128-wide rows
	// onto XZ planes, i.e. "xzy".
	VMeshMapOrder string `json:"vmesh_map_order,omitempty"`

	// Observe instruments the run with an observe.Collector (Options.Observer,
	// else a fresh one) so Result.Observed carries the link/HoL/FIFO
	// summary, and nothing else sets Result.Observed. Observation never
	// perturbs the simulated outcome, but it is part of the request identity
	// because it changes the Result payload.
	Observe bool `json:"observe,omitempty"`
}

// dimLetters renders torus dimensions in map-order strings and the wire form.
const dimLetters = "xyz"

// LinearDim is Request.TPSLinear's type: 0 leaves the phase-1 dimension to
// SelectTPSLinearDim, 1/2/3 force X/Y/Z. Its text form is "", "x", "y", "z".
type LinearDim int

// Dim returns the dimension a non-zero LinearDim names.
func (d LinearDim) Dim() torus.Dim { return torus.Dim(d - 1) }

// MarshalText renders the forced dimension's letter.
func (d LinearDim) MarshalText() ([]byte, error) {
	if d < 1 || int(d) > len(dimLetters) {
		return nil, nil // Validate reports an out-of-range value
	}
	return []byte{dimLetters[d-1]}, nil
}

// UnmarshalText reads "", "x", "y" or "z" in either case.
func (d *LinearDim) UnmarshalText(text []byte) error {
	*d = 0
	if len(text) == 0 {
		return nil
	}
	i := strings.IndexByte(dimLetters, text[0]|0x20)
	if len(text) != 1 || i < 0 {
		return fmt.Errorf("collective: tps_linear %q: want x, y, or z", text)
	}
	*d = LinearDim(i + 1)
	return nil
}

// parseMapOrder reads a 3-letter dimension permutation ("xzy"); "" is the
// default X,Y,Z sweep.
func parseMapOrder(s string) ([3]torus.Dim, error) {
	ord := [3]torus.Dim{torus.X, torus.Y, torus.Z}
	if s == "" {
		return ord, nil
	}
	if len(s) != 3 {
		return ord, fmt.Errorf("collective: map order %q: want 3 dimension letters", s)
	}
	var seen [3]bool
	for i := 0; i < 3; i++ {
		d := strings.IndexByte(dimLetters, s[i]|0x20)
		if d < 0 {
			return ord, fmt.Errorf("collective: map order %q: bad dimension %q", s, s[i])
		}
		if seen[d] {
			return ord, fmt.Errorf("collective: map order %q: dimension %c repeats", s, s[i])
		}
		seen[d] = true
		ord[i] = torus.Dim(d)
	}
	return ord, nil
}

// canonStrategy resolves a strategy name case-insensitively to its canonical
// spelling, or "" if unknown.
func canonStrategy(name string) Strategy {
	for _, s := range Strategies() {
		if strings.EqualFold(string(s), name) {
			return s
		}
	}
	return ""
}

// ParseStrategy resolves a strategy name case-insensitively ("tps" = "TPS")
// to its canonical spelling.
func ParseStrategy(name string) (Strategy, error) {
	if s := canonStrategy(name); s != "" {
		return s, nil
	}
	return "", fmt.Errorf("collective: unknown strategy %q", name)
}

// UnmarshalText normalizes a known strategy name's case; an unknown name is
// kept as written for Validate to report.
func (s *Strategy) UnmarshalText(text []byte) error {
	*s = Strategy(text)
	if c := canonStrategy(string(text)); c != "" {
		*s = c
	}
	return nil
}

// Validate checks the request without running it: every range, grammar and
// cross-field condition a run depends on, so a request that validates fails
// only for what the simulation itself finds. Shape errors wrap
// torus.ErrBadShape; every error is stable enough for an HTTP 400 body.
func (r Request) Validate() error {
	if canonStrategy(string(r.Strategy)) != r.Strategy || r.Strategy == "" {
		return fmt.Errorf("collective: unknown strategy %q", r.Strategy)
	}
	_, err := r.check()
	return err
}

// check is Validate without the strategy-name test (RunPattern has its own),
// returning the parsed fault schedule so prepare does not parse it a second
// time.
func (r Request) check() (*network.FaultSchedule, error) {
	if err := r.Shape.Validate(); err != nil {
		return nil, err
	}
	if r.MsgBytes < 1 {
		return nil, fmt.Errorf("collective: MsgBytes must be >= 1, got %d", r.MsgBytes)
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"Burst", int64(r.Burst)}, {"PaceBurst", int64(r.PaceBurst)},
		{"Shards", int64(r.Shards)}, {"MaxTime", r.MaxTime},
		{"TPSCreditWindow", int64(r.TPSCreditWindow)}, {"TPSCreditBatch", int64(r.TPSCreditBatch)},
		{"VMeshRows", int64(r.VMeshRows)}, {"VMeshCols", int64(r.VMeshCols)},
	} {
		if f.v < 0 {
			return nil, fmt.Errorf("collective: negative %s", f.name)
		}
	}
	if !(r.PaceFraction >= 0 && r.PaceFraction <= 1) { // NaN fails both
		return nil, fmt.Errorf("collective: PaceFraction %v out of [0,1] (0 = default)", r.PaceFraction)
	}
	if r.TPSLinear < 0 || r.TPSLinear > 3 {
		return nil, fmt.Errorf("collective: TPSLinear %d out of 0..3 (0 = auto, 1/2/3 = X/Y/Z)", r.TPSLinear)
	}
	if _, err := parseMapOrder(r.VMeshMapOrder); err != nil {
		return nil, err
	}
	switch r.Strategy {
	case StratTPS:
		if _, err := r.creditBatch(); err != nil {
			return nil, err
		}
	case StratVMesh:
		if _, _, err := r.vmeshFactors(); err != nil {
			return nil, err
		}
	}
	if r.Faults == "" {
		return nil, nil
	}
	fs, err := network.ParseFaults(r.Faults)
	if err != nil {
		return nil, err
	}
	return fs, fs.Validate(r.Shape)
}

// Key returns the canonical encoding of the request: "aa5|" followed by its
// wire form with Shards cleared, a stable string identity used by the serving
// layer's result cache, by bench labeling, and by deduplicating sweeps. The
// struct tags are each field's only identity: Shape marshals in its Canon
// form and Faults is its own canonical text, so distinct requests that pass
// Validate always get distinct keys, and equal keys mean byte-identical
// Results. Shards only schedules the run (the engine is deterministic and
// shard-invariant), so it is left out: the same job asked for at another
// shard count is the same cache entry. The "aa5" prefix versions the
// encoding (v5 made it the wire form and dropped the observation window).
func (r Request) Key() string {
	r.Shards = 0
	// Marshal fails only on a non-finite PaceFraction, which Validate refuses.
	wire, _ := json.Marshal(r)
	return "aa5|" + string(wire)
}

// RunRequest is Run on Options{Request: r} with the extra options applied
// first; by contract they carry run machinery only (a NetCache, an Observer,
// a DebugDump path) - changing Request fields through them would break the
// Key() identity, so don't.
//
// A Result returned here is byte-identical for equal Requests regardless of
// caller, concurrency, or which extra machinery was attached: that is the
// correctness contract the serving layer's memoization rests on.
func RunRequest(ctx context.Context, r Request, extra ...func(*Options)) (Result, error) {
	o := Options{Request: r}
	for _, f := range extra {
		if f != nil {
			f(&o)
		}
	}
	return Run(ctx, o)
}

// UnmarshalJSON reads the wire form into a fresh Request. The field tags and
// the text forms of Strategy, Shape and LinearDim do the decoding; the map
// order's case is the one thing left to normalize.
func (r *Request) UnmarshalJSON(data []byte) error {
	type fields Request // the tagged fields without this method
	var w fields
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	w.VMeshMapOrder = strings.ToLower(w.VMeshMapOrder)
	*r = Request(w)
	return nil
}
