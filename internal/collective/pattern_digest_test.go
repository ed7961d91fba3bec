package collective

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alltoall/internal/network"
	"alltoall/internal/torus"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// tally counts what a run did, event by event, for the digest, independently
// of the Result's own counters. One run is serial, so the one sink needs no
// partitioning.
type tally struct {
	packets, grants, grantBytes, cpuOps, cpuUnits int64
}

func (c *tally) BeginRun(torus.Shape, network.Params)   {}
func (c *tally) Sink(_, _ int, _, _ int32) network.Sink { return c }
func (c *tally) EndRun(int64)                           {}

func (c *tally) OnGrant(_ int64, _ int32, _ int, _ int8, size int32) {
	c.grants++
	c.grantBytes += int64(size)
}
func (c *tally) OnBlocked(int64, int32, int8, int8, uint8, int64, int32, int32) {}
func (c *tally) OnInjFIFO(int32, int, int32)                                    { c.packets++ }
func (c *tally) OnRecvFIFO(int32, int32)                                        {}
func (c *tally) OnCPU(_ int64, _ int32, cost int64) {
	c.cpuOps++
	c.cpuUnits += cost
}

// TestPatternDigest pins one checked run of every built-in pattern (and one
// on deterministic routing) byte for byte: completion time, latency and link
// load from the Result, and packet, link-grant and CPU-operation counts from
// an observer. It is the oracle for changes to the schedule and delivery code
// the pattern runs share with the all-to-all strategies, and it pins each
// pattern's size: P messages for a shift and a permutation, P less the
// diagonal for a transpose, P-1 for a hot spot, K*P for a subset, on adaptive
// and on deterministic routing.
func TestPatternDigest(t *testing.T) {
	shape := torus.New(4, 4, 2)
	cases := []struct {
		pat Pattern
		det bool
	}{
		{Shift{Offset: 5}, false},
		{DimShift{Dim: torus.Y, Hops: 2}, false},
		{Transpose{}, false},
		{RandomPermutation{Seed: 3}, false},
		{HotSpot{Root: 9}, false},
		{RandomSubset{K: 6, Seed: 2}, false},
		{RandomSubset{K: 6, Seed: 2}, true},
	}
	var b strings.Builder
	for _, c := range cases {
		var n tally
		req := Request{Shape: shape, MsgBytes: 700, Seed: 1, Check: true}
		if c.det {
			req.Strategy = StratDR
		}
		res, err := RunPattern(context.Background(), c.pat, Options{Request: req, Observer: &n})
		if err != nil {
			t.Fatalf("%s: %v", c.pat.Name(), err)
		}
		fmt.Fprintf(&b, "%-14s det %-5v messages %d time %d latency %.6f link max %.6f mean %.6f packets %d grants %d grant-bytes %d cpu-ops %d cpu-units %d\n",
			c.pat.Name(), c.det, res.PayloadBytes/int64(res.MsgBytes), res.Time, res.MeanLatencyUnits, res.MaxLinkUtil, res.MeanLinkUtil,
			n.packets, n.grants, n.grantBytes, n.cpuOps, n.cpuUnits)
	}
	path := filepath.Join("testdata", "patterns.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/collective -update` to create): %v", err)
	}
	if b.String() != string(want) {
		t.Errorf("pattern digests drifted from %s (re-run with -update if intended)\ngot:\n%swant:\n%s", path, b.String(), want)
	}
}
