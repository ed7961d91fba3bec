// Package traffic generalizes the communication substrate beyond the
// paper's all-to-all: it generates many-to-many patterns (permutations,
// shifts, transposes, hot spots, random subsets) and runs them on the
// simulated torus with the same packetization, pacing and routing machinery
// as the collective strategies. The paper's introduction motivates exactly
// this: "we hope the performance analysis and the optimization techniques
// ... can be also applied for more complex many-to-many communication
// patterns".
package traffic

import (
	"context"
	"fmt"
	"math/rand"

	"alltoall/internal/collective"
	"alltoall/internal/torus"
)

// Pattern produces, for every source rank, the list of destination ranks it
// sends one message to. Destinations may repeat (multiple messages) but
// must not include the source itself.
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
		return nil // undefined off the square; validated by Run
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

// Result reports a pattern run.
type Result struct {
	Pattern          string
	Shape            torus.Shape
	MsgBytes         int
	Messages         int64
	Time             int64
	Seconds          float64
	MeanLatencyUnits float64
	MaxLinkUtil      float64
	MeanLinkUtil     float64
	PerNodeMBs       float64 // delivered payload per node per second
}

// RunOpts executes a pattern under a context with the collective Options
// vocabulary, the engine behind alltoall.RunPatternContext: pattern runs
// share the all-to-all strategies' run description, list schedule and
// delivery handler (Options.Prepare and Options.RunLists), so shape, message
// size, shards, check, faults, MaxTime, Par, Calib, Cache, Observer and
// DebugDump all mean the same thing here, plus Options.DetRouting for
// deterministic dimension-ordered routing. Cancellation aborts the run with an error
// wrapping network.ErrCanceled; an exceeded time bound wraps
// network.ErrMaxTime.
func RunOpts(ctx context.Context, pat Pattern, opts collective.Options) (Result, error) {
	maxTime := opts.MaxTime
	if err := opts.Prepare(ctx); err != nil {
		return Result{}, err
	}
	calib := opts.Calib
	p := opts.Shape.P()
	msg := collective.NewMsg(opts.MsgBytes, calib.HeaderBytes)
	dests := make([][]int32, p)
	var messages int64
	wantRecv := make([]int64, p)
	for n := 0; n < p; n++ {
		ds := pat.Destinations(opts.Shape, n)
		dests[n] = make([]int32, len(ds))
		for i, d := range ds {
			if d == n || d < 0 || d >= p {
				return Result{}, fmt.Errorf("traffic: pattern %s produced invalid destination %d from %d",
					pat.Name(), d, n)
			}
			dests[n][i] = int32(d)
			wantRecv[d] += int64(opts.MsgBytes)
		}
		messages += int64(len(ds))
	}
	if messages == 0 {
		return Result{}, fmt.Errorf("traffic: pattern %s sends nothing on %v", pat.Name(), opts.Shape)
	}
	if maxTime == 0 {
		// Prepare's default bounds an all-to-all; a pattern may repeat
		// destinations without limit, so bound it by its own volume.
		opts.MaxTime = messages*msg.Wire*int64(p) + 1<<24
	}
	nw, t, err := opts.RunLists("traffic: "+pat.Name(), dests, msg,
		func(n int) int64 { return wantRecv[n] })
	if err != nil {
		return Result{}, err
	}
	st := nw.Stats()
	res := Result{
		Pattern:          pat.Name(),
		Shape:            opts.Shape,
		MsgBytes:         opts.MsgBytes,
		Messages:         messages,
		Time:             t,
		Seconds:          calib.Seconds(float64(t)),
		MeanLatencyUnits: st.MeanLatency(),
		MaxLinkUtil:      st.MaxLinkUtilization(t),
		MeanLinkUtil:     st.MeanLinkUtilization(t, opts.Shape.LinkCount()),
	}
	if t > 0 {
		bytesPerUnit := float64(messages) * float64(opts.MsgBytes) / float64(p) / float64(t)
		res.PerNodeMBs = bytesPerUnit / calib.BetaNsPerByte * 1e3
	}
	return res, nil
}
