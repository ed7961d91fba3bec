package collective

import (
	"context"
	"fmt"
	"math/rand"

	"alltoall/internal/torus"
)

// Beyond the all-to-all: many-to-many patterns (permutations, shifts,
// transposes, hot spots, random subsets) on the same route plan, list
// schedule and run skeleton as the strategies. The paper's introduction
// motivates exactly this: "we hope the performance analysis and the
// optimization techniques ... can be also applied for more complex
// many-to-many communication patterns".

// Pattern produces, for every source rank, the list of destination ranks it
// sends one message to. Destinations may repeat (multiple messages) but
// must not include the source itself. A pattern whose parameters the shape
// cannot honour sends nothing (or names a rank off the partition), which
// RunPattern reports as an error naming the pattern.
type Pattern interface {
	Name() string
	Destinations(shape torus.Shape, src int) []int
}

// Shift sends every node one message to the node Offset ranks away
// (wrapping): a classic neighbor/ring exchange.
type Shift struct{ Offset int }

func (s Shift) Name() string { return fmt.Sprintf("shift+%d", s.Offset) }

// Destinations implements Pattern.
func (s Shift) Destinations(shape torus.Shape, src int) []int {
	p := shape.P()
	d := ((src+s.Offset)%p + p) % p
	if d == src {
		return nil
	}
	return []int{d}
}

// DimShift sends along one torus dimension by a fixed hop count: every node
// (x,y,z) sends to the node Hops away in Dim.
type DimShift struct {
	Dim  torus.Dim
	Hops int
}

func (s DimShift) Name() string { return fmt.Sprintf("dimshift-%v+%d", s.Dim, s.Hops) }

// Destinations implements Pattern.
func (s DimShift) Destinations(shape torus.Shape, src int) []int {
	if s.Dim < 0 || s.Dim >= torus.NumDims {
		return nil // no such dimension; RunPattern reports the empty pattern
	}
	c := shape.Coords(src)
	k := shape.Size[s.Dim]
	c[s.Dim] = ((c[s.Dim]+s.Hops)%k + k) % k
	d := shape.Rank(c)
	if d == src {
		return nil
	}
	return []int{d}
}

// Transpose exchanges X and Y coordinates (matrix transpose on the XY
// planes), a common FFT/linear-algebra pattern with heavy link reuse.
type Transpose struct{}

func (Transpose) Name() string { return "transpose" }

// Destinations implements Pattern.
func (Transpose) Destinations(shape torus.Shape, src int) []int {
	if shape.Size[torus.X] != shape.Size[torus.Y] {
		return nil // undefined off the square; RunPattern reports the empty pattern
	}
	c := shape.Coords(src)
	c[torus.X], c[torus.Y] = c[torus.Y], c[torus.X]
	d := shape.Rank(c)
	if d == src {
		return nil
	}
	return []int{d}
}

// RandomPermutation sends every node one message to a distinct random
// partner (a permutation with no fixed points where possible).
type RandomPermutation struct{ Seed uint64 }

func (RandomPermutation) Name() string { return "randperm" }

// Destinations implements Pattern.
func (r RandomPermutation) Destinations(shape torus.Shape, src int) []int {
	// Derangement-ish: use the shared keyed permutation; map fixed points
	// to the next rank.
	p := shape.P()
	perm := torus.NewPerm(p, r.Seed|1)
	d := perm.At(src)
	if d == src {
		d = (d + 1) % p
	}
	return []int{d}
}

// HotSpot sends every node one message to a single root (all-to-one
// incast): the worst case for reception-side contention.
type HotSpot struct{ Root int }

func (h HotSpot) Name() string { return fmt.Sprintf("hotspot@%d", h.Root) }

// Destinations implements Pattern.
func (h HotSpot) Destinations(shape torus.Shape, src int) []int {
	if src == h.Root%shape.P() {
		return nil
	}
	return []int{h.Root % shape.P()}
}

// RandomSubset sends every node one message to each of K distinct random
// peers: the general many-to-many pattern.
type RandomSubset struct {
	K    int
	Seed uint64
}

func (r RandomSubset) Name() string { return fmt.Sprintf("many-to-%d", r.K) }

// Destinations implements Pattern.
func (r RandomSubset) Destinations(shape torus.Shape, src int) []int {
	p := shape.P()
	k := r.K
	if k > p-1 {
		k = p - 1
	}
	if k <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(int64(r.Seed)*1e9 + int64(src)))
	seen := map[int]bool{src: true}
	out := make([]int, 0, k)
	for len(out) < k {
		d := rng.Intn(p)
		if seen[d] {
			continue
		}
		seen[d] = true
		out = append(out, d)
	}
	return out
}

// RunPattern executes a pattern under a context on the run opts describes:
// shape, message size, shards, check, faults, MaxTime, Observe, Par, Calib,
// Cache, Observer and DebugDump all mean what they mean to Run. The
// Request's Strategy is the routing, as in the all-to-all: StratDR
// deterministic dimension order, StratAR or "" adaptive; no other strategy
// routes a pattern. Of the Result, PeakTime and PercentPeak stay zero
// (Equation 2 bounds an all-to-all) and PayloadBytes/MsgBytes is the number
// of messages sent. Cancellation wraps network.ErrCanceled, an exceeded time
// bound network.ErrMaxTime.
func RunPattern(ctx context.Context, pat Pattern, opts Options) (Result, error) {
	if s := opts.Strategy; s != "" && s != StratAR && s != StratDR {
		return Result{}, fmt.Errorf("collective: pattern %s: strategy %q does not route a pattern (want %s, %s or none)",
			pat.Name(), s, StratAR, StratDR)
	}
	maxTime := opts.MaxTime
	if err := opts.prepare(ctx); err != nil {
		return Result{}, err
	}
	p := opts.Shape.P()
	msg := NewMsg(opts.MsgBytes, opts.Calib.HeaderBytes)
	dests := make([][]int32, p)
	var messages int64
	wantRecv := make([]int64, p)
	for n := 0; n < p; n++ {
		ds := pat.Destinations(opts.Shape, n)
		dests[n] = make([]int32, len(ds))
		for i, d := range ds {
			if d == n || d < 0 || d >= p {
				return Result{}, fmt.Errorf("collective: pattern %s produced invalid destination %d from %d",
					pat.Name(), d, n)
			}
			dests[n][i] = int32(d)
			wantRecv[d] += int64(opts.MsgBytes)
		}
		messages += int64(len(ds))
	}
	if messages == 0 {
		return Result{}, fmt.Errorf("collective: pattern %s sends nothing on %v", pat.Name(), opts.Shape)
	}
	if maxTime == 0 {
		// prepare's default bounds an all-to-all; a pattern may repeat
		// destinations without limit, so bound it by its own volume.
		opts.MaxTime = messages*msg.Wire*int64(p) + 1<<24
	}
	nw, t, err := opts.runLists("pattern "+pat.Name(), directRoute(opts.Shape, opts.Strategy == StratDR),
		dests, msg, 0, pacer{}, nil, func(n int) int64 { return wantRecv[n] })
	if err != nil {
		return Result{}, err
	}
	res := opts.result(t, nw.Stats())
	res.PeakTime, res.PercentPeak, res.PerNodeMBs = 0, 0, 0
	if t > 0 {
		bytesPerUnit := float64(res.PayloadBytes) / float64(p) / float64(t)
		res.PerNodeMBs = bytesPerUnit / opts.Calib.BetaNsPerByte * 1e3
	}
	return res, nil
}
