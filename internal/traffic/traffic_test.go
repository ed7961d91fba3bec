// Package traffic_test holds the behavioural tests of the many-to-many
// pattern runner, collective.RunPattern. The package they were written in is
// folded into internal/collective; the tests keep their path and names so
// the suite's test identities do not move.
package traffic_test

import (
	"context"
	"strings"
	"testing"

	"alltoall/internal/collective"
	"alltoall/internal/torus"
)

func shape844() torus.Shape { return torus.New(8, 4, 4) }

// messages is the number of messages a pattern run delivered.
func messages(res collective.Result) int64 { return res.PayloadBytes / int64(res.MsgBytes) }

func TestShiftPattern(t *testing.T) {
	s := shape844()
	res, err := collective.RunPattern(context.Background(), collective.Shift{Offset: 3}, collective.Options{Request: collective.Request{Shape: s, MsgBytes: 512, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if messages(res) != int64(s.P()) {
		t.Errorf("messages = %d, want %d", messages(res), s.P())
	}
	if res.Time <= 0 || res.PerNodeMBs <= 0 {
		t.Errorf("bad result %+v", res)
	}
}

func TestShiftZeroOffsetRejected(t *testing.T) {
	if _, err := collective.RunPattern(context.Background(), collective.Shift{Offset: 0}, collective.Options{Request: collective.Request{Shape: shape844(), MsgBytes: 64}}); err == nil {
		t.Error("self-only pattern accepted")
	}
}

func TestDimShift(t *testing.T) {
	s := shape844()
	pat := collective.DimShift{Dim: torus.X, Hops: 1}
	res, err := collective.RunPattern(context.Background(), pat, collective.Options{Request: collective.Request{Shape: s, MsgBytes: 256}})
	if err != nil {
		t.Fatal(err)
	}
	// A +1 X shift is pure nearest-neighbour: it should run close to link
	// speed with very low contention.
	if res.MaxLinkUtil > 1.0 {
		t.Errorf("util %v > 1", res.MaxLinkUtil)
	}
	if !strings.HasPrefix(pat.Name(), "dimshift-X") {
		t.Errorf("pattern name %q", pat.Name())
	}
}

func TestTransposeNeedsSquare(t *testing.T) {
	if _, err := collective.RunPattern(context.Background(), collective.Transpose{}, collective.Options{Request: collective.Request{Shape: shape844(), MsgBytes: 64}}); err == nil {
		t.Error("transpose on non-square XY accepted")
	}
	res, err := collective.RunPattern(context.Background(), collective.Transpose{}, collective.Options{Request: collective.Request{Shape: torus.New(4, 4, 4), MsgBytes: 256}})
	if err != nil {
		t.Fatal(err)
	}
	// Diagonal nodes don't send; everyone else exchanges.
	p := int64(64)
	diag := int64(4 * 4) // x==y for each z
	if messages(res) != p-diag {
		t.Errorf("messages = %d, want %d", messages(res), p-diag)
	}
}

func TestRandomPermutation(t *testing.T) {
	s := shape844()
	res, err := collective.RunPattern(context.Background(), collective.RandomPermutation{Seed: 9}, collective.Options{Request: collective.Request{Shape: s, MsgBytes: 128}})
	if err != nil {
		t.Fatal(err)
	}
	if messages(res) != int64(s.P()) {
		t.Errorf("messages = %d", messages(res))
	}
}

func TestHotSpotIncast(t *testing.T) {
	s := torus.New(4, 4, 1)
	res, err := collective.RunPattern(context.Background(), collective.HotSpot{Root: 5}, collective.Options{Request: collective.Request{Shape: s, MsgBytes: 256}})
	if err != nil {
		t.Fatal(err)
	}
	if messages(res) != int64(s.P()-1) {
		t.Errorf("messages = %d", messages(res))
	}
	// Incast serializes on the root's reception: completion is at least
	// (P-1) wire messages through the root's links (4 links here).
	if res.Time < int64(s.P()-1)*256/6 {
		t.Errorf("incast finished implausibly fast: %d", res.Time)
	}
}

func TestRandomSubset(t *testing.T) {
	s := shape844()
	res, err := collective.RunPattern(context.Background(), collective.RandomSubset{K: 5, Seed: 3}, collective.Options{Request: collective.Request{Shape: s, MsgBytes: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if messages(res) != int64(5*s.P()) {
		t.Errorf("messages = %d, want %d", messages(res), 5*s.P())
	}
	// K larger than P-1 clamps.
	res2, err := collective.RunPattern(context.Background(), collective.RandomSubset{K: 1000, Seed: 3}, collective.Options{Request: collective.Request{Shape: torus.New(4, 2, 1), MsgBytes: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if messages(res2) != int64(7*8) {
		t.Errorf("clamped messages = %d, want 56", messages(res2))
	}
}

func TestDeterministicRoutingPattern(t *testing.T) {
	s := shape844()
	res, err := collective.RunPattern(context.Background(), collective.RandomPermutation{Seed: 4}, collective.Options{Request: collective.Request{Strategy: collective.StratDR, Shape: s, MsgBytes: 512}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Error("no completion time")
	}
}

func TestPatternValidation(t *testing.T) {
	if _, err := collective.RunPattern(context.Background(), collective.Shift{Offset: 1}, collective.Options{Request: collective.Request{Shape: torus.Shape{Size: [3]int{0, 1, 1}}, MsgBytes: 8}}); err == nil {
		t.Error("invalid shape accepted")
	}
	if _, err := collective.RunPattern(context.Background(), collective.Shift{Offset: 1}, collective.Options{Request: collective.Request{Shape: shape844(), MsgBytes: 0}}); err == nil {
		t.Error("zero message accepted")
	}
}

func TestPatternDestinationsPure(t *testing.T) {
	// Property: Destinations never yields self or out-of-range ranks for
	// any pattern in the catalogue.
	s := torus.New(4, 4, 2)
	pats := []collective.Pattern{
		collective.Shift{Offset: 7}, collective.DimShift{Dim: torus.Z, Hops: 1}, collective.RandomPermutation{Seed: 2},
		collective.HotSpot{Root: 3}, collective.RandomSubset{K: 4, Seed: 8},
	}
	for _, pat := range pats {
		for src := 0; src < s.P(); src++ {
			for _, d := range pat.Destinations(s, src) {
				if d == src || d < 0 || d >= s.P() {
					t.Fatalf("%s: bad destination %d from %d", pat.Name(), d, src)
				}
			}
		}
	}
}
