package collective

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"alltoall/internal/model"
	"alltoall/internal/network"
	"alltoall/internal/observe"
	"alltoall/internal/torus"
)

// ErrNotCanonical is returned by NewRequest for an Options value that a
// Request cannot represent: explicit machine Params or Calib overrides, or
// run machinery (Observer, Cache, DebugDump) that is identity-free by
// design. Callers fall back to RunContext with the Options struct; test with
// errors.Is.
var ErrNotCanonical = errors.New("collective: options not canonicalizable as a Request")

// Request is the canonical, value-comparable description of one simulation:
// everything that determines a run's Result, and nothing that doesn't. It is
// the front door shared by the public API (alltoall.RunRequest), the aasim
// CLI, the experiments engine, and the aaserve HTTP service - the same
// Request, wherever it is submitted, produces a byte-identical Result, which
// is what makes Key() a sound cache and bench identity.
//
// Zero values mean "library default" throughout (matching Options.fill), so
// the zero Request plus Strategy, Shape and MsgBytes is a complete job. Run
// machinery - network caches, observers, debug dumps, cancellation - is
// deliberately not here: it never changes the Result and is layered on per
// call site (see RunRequest's extra options).
type Request struct {
	Strategy Strategy
	Shape    torus.Shape
	MsgBytes int    // per-pair payload, >= 1
	Seed     uint64 // destination-order randomization

	Burst        int     // packets per destination visit (0 = default 2)
	PaceBurst    int     // injection token-bucket depth (0 = default)
	PaceFraction float64 // injection rate vs bisection limit (0 = default 0.95)
	Unpaced      bool    // disable pacing (ablation)

	Shards int  // event-engine shards (results identical at any value)
	Check  bool // runtime invariant checker

	// Faults is a deterministic link-fault schedule in the ParseFaults
	// grammar ("t:node:dir:action;..."); "" faults nothing. The textual
	// form is the canonical one (the grammar is a String/Parse fixed
	// point), so Requests stay value-comparable and JSON-portable.
	Faults string

	MaxTime int64 // simulated-time bound (0 = derived default)

	// TPSLinear forces the Two Phase Schedule's phase-1 dimension:
	// 0 selects automatically (the paper's rule), 1/2/3 force X/Y/Z.
	TPSLinear       int
	TPSCreditWindow int
	TPSCreditBatch  int

	// VMeshRows/Cols force the virtual-mesh factorization (0 = balanced);
	// VMeshMapOrder is a 3-letter dimension permutation like "xzy" ("" =
	// the default X,Y,Z sweep).
	VMeshRows     int
	VMeshCols     int
	VMeshMapOrder string

	// Observe instruments the run with an observe.Collector so
	// Result.Observed carries the link/HoL/FIFO summary; ObserveWindow is
	// the trace bucket width (0 = default). Observation never perturbs
	// the simulated outcome, but it is part of the request identity
	// because it changes the Result payload.
	Observe       bool
	ObserveWindow int64
}

// dimLetters renders torus dimensions in map-order strings and keys.
const dimLetters = "xyz"

// parseMapOrder reads a 3-letter dimension permutation ("xzy").
func parseMapOrder(s string) ([3]torus.Dim, error) {
	var ord [3]torus.Dim
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

// Validate checks the request without running it. Shape errors wrap
// torus.ErrBadShape; every error is stable enough for an HTTP 400 body.
func (r Request) Validate() error {
	if canonStrategy(string(r.Strategy)) != r.Strategy || r.Strategy == "" {
		return fmt.Errorf("collective: unknown strategy %q", r.Strategy)
	}
	if err := r.Shape.Validate(); err != nil {
		return err
	}
	if r.MsgBytes < 1 {
		return fmt.Errorf("collective: MsgBytes must be >= 1, got %d", r.MsgBytes)
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"Burst", int64(r.Burst)}, {"PaceBurst", int64(r.PaceBurst)},
		{"Shards", int64(r.Shards)}, {"MaxTime", r.MaxTime},
		{"TPSCreditWindow", int64(r.TPSCreditWindow)}, {"TPSCreditBatch", int64(r.TPSCreditBatch)},
		{"VMeshRows", int64(r.VMeshRows)}, {"VMeshCols", int64(r.VMeshCols)},
		{"ObserveWindow", r.ObserveWindow},
	} {
		if f.v < 0 {
			return fmt.Errorf("collective: negative %s", f.name)
		}
	}
	if r.PaceFraction < 0 || r.PaceFraction > 1 {
		return fmt.Errorf("collective: PaceFraction %v out of [0,1]", r.PaceFraction)
	}
	if r.TPSLinear < 0 || r.TPSLinear > 3 {
		return fmt.Errorf("collective: TPSLinear %d out of 0..3 (0 = auto, 1/2/3 = X/Y/Z)", r.TPSLinear)
	}
	if r.Faults != "" {
		if _, err := network.ParseFaults(r.Faults); err != nil {
			return err
		}
	}
	if r.VMeshMapOrder != "" {
		if _, err := parseMapOrder(r.VMeshMapOrder); err != nil {
			return err
		}
	}
	return nil
}

// Key returns the canonical encoding of the request: a stable, injective
// string identity used by the serving layer's result cache, by bench
// labeling, and by deduplicating sweeps. Equal keys mean byte-identical
// Results (the engine is deterministic and shard-invariant); distinct field
// values always produce distinct keys. The "aa3" prefix versions the
// encoding (v3 dropped the engine-selection tags eq, co and sy).
func (r Request) Key() string {
	var b strings.Builder
	b.Grow(160)
	b.WriteString("aa3|s=")
	b.WriteString(string(r.Strategy))
	b.WriteString("|p=")
	b.WriteString(r.Shape.Canon())
	sep := func(tag string, v string) {
		b.WriteByte('|')
		b.WriteString(tag)
		b.WriteByte('=')
		b.WriteString(v)
	}
	sep("m", strconv.Itoa(r.MsgBytes))
	sep("r", strconv.FormatUint(r.Seed, 10))
	sep("b", strconv.Itoa(r.Burst))
	sep("pb", strconv.Itoa(r.PaceBurst))
	sep("pf", strconv.FormatFloat(r.PaceFraction, 'g', -1, 64))
	sep("up", boolKey(r.Unpaced))
	sep("sh", strconv.Itoa(r.Shards))
	sep("ck", boolKey(r.Check))
	sep("f", r.Faults)
	sep("mt", strconv.FormatInt(r.MaxTime, 10))
	sep("tl", strconv.Itoa(r.TPSLinear))
	sep("tw", strconv.Itoa(r.TPSCreditWindow))
	sep("tb", strconv.Itoa(r.TPSCreditBatch))
	sep("vr", strconv.Itoa(r.VMeshRows))
	sep("vc", strconv.Itoa(r.VMeshCols))
	sep("vo", r.VMeshMapOrder)
	sep("ob", boolKey(r.Observe))
	sep("ow", strconv.FormatInt(r.ObserveWindow, 10))
	return b.String()
}

func boolKey(v bool) string {
	if v {
		return "1"
	}
	return "0"
}

// options expands the request into the Options struct the strategy runners
// consume. The expansion is exact: NewRequest(strat, r.options()) round-trips.
func (r Request) options() (Options, error) {
	o := Options{
		Shape:           r.Shape,
		MsgBytes:        r.MsgBytes,
		Seed:            r.Seed,
		Burst:           r.Burst,
		PaceBurst:       r.PaceBurst,
		PaceFraction:    r.PaceFraction,
		Unpaced:         r.Unpaced,
		Shards:          r.Shards,
		Check:           r.Check,
		MaxTime:         r.MaxTime,
		TPSCreditWindow: r.TPSCreditWindow,
		TPSCreditBatch:  r.TPSCreditBatch,
		VMeshRows:       r.VMeshRows,
		VMeshCols:       r.VMeshCols,
	}
	if r.Faults != "" {
		fs, err := network.ParseFaults(r.Faults)
		if err != nil {
			return o, err
		}
		if len(fs.Events) > 0 {
			o.Faults = fs
		}
	}
	if r.TPSLinear > 0 {
		d := torus.Dim(r.TPSLinear - 1)
		o.TPSLinear = &d
	}
	if r.VMeshMapOrder != "" {
		ord, err := parseMapOrder(r.VMeshMapOrder)
		if err != nil {
			return o, err
		}
		o.VMeshMapOrder = &ord
	}
	return o, nil
}

// NewRequest lifts an Options struct into the canonical Request form, the
// bridge the experiments engine and the facade's functional options go
// through. Options that carry non-canonical state - explicit Par or Calib
// overrides, an Observer, a Cache, a DebugDump path - return an error
// wrapping ErrNotCanonical: those fields are either not value-encodable (v1
// keys don't cover custom machine parameters) or deliberately excluded from
// request identity; layer them per call with RunRequest's extra options.
func NewRequest(strat Strategy, o Options) (Request, error) {
	if o.Par != (network.Params{}) {
		return Request{}, fmt.Errorf("%w: explicit Params", ErrNotCanonical)
	}
	if o.Calib != (model.Calib{}) {
		return Request{}, fmt.Errorf("%w: explicit Calib", ErrNotCanonical)
	}
	if o.Observer != nil {
		return Request{}, fmt.Errorf("%w: Observer (pass it as a RunRequest extra option)", ErrNotCanonical)
	}
	if o.Cache != nil {
		return Request{}, fmt.Errorf("%w: Cache (pass it as a RunRequest extra option)", ErrNotCanonical)
	}
	if o.SyncStats != nil {
		return Request{}, fmt.Errorf("%w: SyncStats (pass it as a RunRequest extra option)", ErrNotCanonical)
	}
	if o.DebugDump != "" {
		return Request{}, fmt.Errorf("%w: DebugDump (pass it as a RunRequest extra option)", ErrNotCanonical)
	}
	if o.cancel != nil {
		return Request{}, fmt.Errorf("%w: cancellation channel (use RunRequest's context)", ErrNotCanonical)
	}
	r := Request{
		Strategy:        strat,
		Shape:           o.Shape,
		MsgBytes:        o.MsgBytes,
		Seed:            o.Seed,
		Burst:           o.Burst,
		PaceBurst:       o.PaceBurst,
		PaceFraction:    o.PaceFraction,
		Unpaced:         o.Unpaced,
		Shards:          o.Shards,
		Check:           o.Check,
		Faults:          o.Faults.String(),
		MaxTime:         o.MaxTime,
		TPSCreditWindow: o.TPSCreditWindow,
		TPSCreditBatch:  o.TPSCreditBatch,
		VMeshRows:       o.VMeshRows,
		VMeshCols:       o.VMeshCols,
	}
	if o.TPSLinear != nil {
		r.TPSLinear = int(*o.TPSLinear) + 1
	}
	if o.VMeshMapOrder != nil {
		var b [3]byte
		for i, d := range o.VMeshMapOrder {
			if d < 0 || int(d) >= len(dimLetters) {
				return Request{}, fmt.Errorf("%w: VMeshMapOrder dimension %d", ErrNotCanonical, d)
			}
			b[i] = dimLetters[d]
		}
		r.VMeshMapOrder = string(b[:])
	}
	return r, r.Validate()
}

// RunRequest executes the canonical request under a context. The extra
// options are applied to the expanded Options before the run; by contract
// they carry run machinery only (a NetCache, an Observer, a DebugDump path)
// - changing canonical fields through them would break the Key() identity,
// so don't. When r.Observe is set and no extra option installed an observer,
// a fresh observe.Collector is attached so Result.Observed is populated.
//
// A Result returned here is byte-identical for equal Requests regardless of
// caller, concurrency, or which extra machinery was attached: that is the
// correctness contract the serving layer's memoization rests on.
func RunRequest(ctx context.Context, r Request, extra ...func(*Options)) (Result, error) {
	if err := r.Validate(); err != nil {
		return Result{}, err
	}
	o, err := r.options()
	if err != nil {
		return Result{}, err
	}
	for _, f := range extra {
		if f != nil {
			f(&o)
		}
	}
	if r.Observe && o.Observer == nil {
		o.Observer = observe.New(observe.Config{Window: r.ObserveWindow})
	}
	return RunContext(ctx, r.Strategy, o)
}

// requestWire is the JSON layout of a Request: snake_case fields, shape in
// the canonical Parse/Canon grammar, zero values omitted. The layout is
// covered by the serve schema version. Keys it does not name are ignored on
// decode, so requests still carrying the retired event_queue, coalesce or
// sync selectors parse to the same Request as ones without.
type requestWire struct {
	Strategy        string  `json:"strategy"`
	Shape           string  `json:"shape"`
	MsgBytes        int     `json:"msg_bytes"`
	Seed            uint64  `json:"seed,omitempty"`
	Burst           int     `json:"burst,omitempty"`
	PaceBurst       int     `json:"pace_burst,omitempty"`
	PaceFraction    float64 `json:"pace_fraction,omitempty"`
	Unpaced         bool    `json:"unpaced,omitempty"`
	Shards          int     `json:"shards,omitempty"`
	Check           bool    `json:"check,omitempty"`
	Faults          string  `json:"faults,omitempty"`
	MaxTime         int64   `json:"max_time,omitempty"`
	TPSLinear       string  `json:"tps_linear,omitempty"`
	TPSCreditWindow int     `json:"tps_credit_window,omitempty"`
	TPSCreditBatch  int     `json:"tps_credit_batch,omitempty"`
	VMeshRows       int     `json:"vmesh_rows,omitempty"`
	VMeshCols       int     `json:"vmesh_cols,omitempty"`
	VMeshMapOrder   string  `json:"vmesh_map_order,omitempty"`
	Observe         bool    `json:"observe,omitempty"`
	ObserveWindow   int64   `json:"observe_window,omitempty"`
}

// MarshalJSON renders the canonical wire form (see requestWire).
func (r Request) MarshalJSON() ([]byte, error) {
	w := requestWire{
		Strategy:        string(r.Strategy),
		MsgBytes:        r.MsgBytes,
		Seed:            r.Seed,
		Burst:           r.Burst,
		PaceBurst:       r.PaceBurst,
		PaceFraction:    r.PaceFraction,
		Unpaced:         r.Unpaced,
		Shards:          r.Shards,
		Check:           r.Check,
		Faults:          r.Faults,
		MaxTime:         r.MaxTime,
		TPSCreditWindow: r.TPSCreditWindow,
		TPSCreditBatch:  r.TPSCreditBatch,
		VMeshRows:       r.VMeshRows,
		VMeshCols:       r.VMeshCols,
		VMeshMapOrder:   r.VMeshMapOrder,
		Observe:         r.Observe,
		ObserveWindow:   r.ObserveWindow,
	}
	if r.Shape != (torus.Shape{}) { // the unset shape reads back from "", not "0x0x0"
		w.Shape = r.Shape.Canon()
	}
	if r.TPSLinear > 0 {
		w.TPSLinear = string(dimLetters[r.TPSLinear-1])
	}
	return json.Marshal(w)
}

// UnmarshalJSON reads the wire form, normalizing strategy case and parsing
// the shape grammar.
func (r *Request) UnmarshalJSON(data []byte) error {
	var w requestWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	out := Request{
		MsgBytes:        w.MsgBytes,
		Seed:            w.Seed,
		Burst:           w.Burst,
		PaceBurst:       w.PaceBurst,
		PaceFraction:    w.PaceFraction,
		Unpaced:         w.Unpaced,
		Shards:          w.Shards,
		Check:           w.Check,
		Faults:          w.Faults,
		MaxTime:         w.MaxTime,
		TPSCreditWindow: w.TPSCreditWindow,
		TPSCreditBatch:  w.TPSCreditBatch,
		VMeshRows:       w.VMeshRows,
		VMeshCols:       w.VMeshCols,
		VMeshMapOrder:   strings.ToLower(w.VMeshMapOrder),
		Observe:         w.Observe,
		ObserveWindow:   w.ObserveWindow,
	}
	if s := canonStrategy(w.Strategy); s != "" {
		out.Strategy = s
	} else {
		out.Strategy = Strategy(w.Strategy) // Validate reports it
	}
	if w.Shape != "" {
		shape, err := torus.Parse(w.Shape)
		if err != nil {
			return err
		}
		out.Shape = shape
	}
	switch tl := strings.ToLower(w.TPSLinear); tl {
	case "":
	case "x", "y", "z":
		out.TPSLinear = strings.IndexByte(dimLetters, tl[0]) + 1
	default:
		return fmt.Errorf("collective: tps_linear %q: want x, y, or z", w.TPSLinear)
	}
	*r = out
	return nil
}
