package torus

import (
	"math"
	"testing"
	"testing/quick"
)

// TestPeakMatchesEquation2 checks that for all-torus shapes the exact cut
// calculator reduces to the paper's Equation 2: T/m = P * M / 8.
func TestPeakMatchesEquation2(t *testing.T) {
	shapes := []Shape{
		New(8, 8, 8),
		New(16, 16, 16),
		New(16, 8, 8),
		New(8, 32, 16),
		New(40, 32, 16),
		New(8, 8, 1),
		New(16, 1, 1),
	}
	for _, s := range shapes {
		want := float64(s.P()) * float64(s.Size[s.LongestDim()]) / 8
		got := s.PeakTimePerByte()
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("%v: PeakTimePerByte = %v, want Eq2 %v", s, got, want)
		}
	}
}

// TestPeakOddTorus checks the exact +hop accounting on odd rings, where
// Equation 2's k/4 average is only approximate. For odd k the per-direction
// total hops per line are k*(k^2-1)/8, spread over k links.
func TestPeakOddTorus(t *testing.T) {
	s := New(5, 1, 1)
	// Ordered pairs on a 5-ring: distances 1,2 in each direction.
	// +hops per source = 1+2 = 3; total over 5 sources = 15; per +link = 3.
	// Scaled by nodes-per-coord (1): bottleneck = 3.
	if got := s.DimBottleneckPerByte(X); math.Abs(got-3) > 1e-12 {
		t.Errorf("5-ring bottleneck = %v, want 3", got)
	}
}

// TestPeakMeshDoublesTorus checks that a mesh dimension's bottleneck is
// about twice the torus bottleneck for the same size (centre cut).
func TestPeakMeshDoublesTorus(t *testing.T) {
	tor := New(8, 8, 8)
	mesh := NewMesh(8, 8, 8, true, true, false)
	rt := tor.DimBottleneckPerByte(Z)
	rm := mesh.DimBottleneckPerByte(Z)
	// Torus: P*k/8 = 512. Mesh centre link: crossings (j+1)(k-1-j) max at
	// j=3: 4*4=16 pairs * (P/k)^2 / (P/k) = 16*64 = 1024.
	if rt != 512 {
		t.Errorf("torus Z bottleneck = %v, want 512", rt)
	}
	if rm != 1024 {
		t.Errorf("mesh Z bottleneck = %v, want 1024", rm)
	}
}

// TestPeakTable2MeshShapes sanity-checks the mesh shapes from Table 2:
// the bottleneck dimension of 8x8x4M is the mesh dimension even though it is
// shorter than 8.
func TestPeakTable2MeshShapes(t *testing.T) {
	s := NewMesh(8, 8, 4, true, true, false)
	// Torus dims: P*8/8 = 256. Mesh dim 4: max (j+1)(3-j) = 4 at j=1;
	// per-link = 4 * (P/4)^2 / (P/4) = 4 * 64 = 256. Equal here.
	bx := s.DimBottleneckPerByte(X)
	bz := s.DimBottleneckPerByte(Z)
	if bx != 256 || bz != 256 {
		t.Errorf("8x8x4M bottlenecks X=%v Z=%v, want 256/256", bx, bz)
	}
	s2 := NewMesh(8, 8, 8, true, true, false)
	if s2.PeakTimePerByte() != 1024 {
		t.Errorf("8x8x8M peak = %v, want 1024 (mesh dim dominates)", s2.PeakTimePerByte())
	}
}

func TestPeakTimeScalesWithMessage(t *testing.T) {
	s := New(8, 8, 8)
	if got, want := s.PeakTime(100), 100*s.PeakTimePerByte(); got != want {
		t.Errorf("PeakTime(100) = %v, want %v", got, want)
	}
}

func TestBisectionBandwidthPerNode(t *testing.T) {
	s := New(8, 8, 8)
	// (P-1)/(P*M/8) = 511/512.
	want := 511.0 / 512.0
	if got := s.BisectionBandwidthPerNode(); math.Abs(got-want) > 1e-12 {
		t.Errorf("bw/node = %v, want %v", got, want)
	}
	// Longer dimension lowers per-node bandwidth.
	a := New(8, 32, 16).BisectionBandwidthPerNode()
	b := New(16, 16, 16).BisectionBandwidthPerNode()
	if a >= b {
		t.Errorf("asymmetric 8x32x16 bw %v should be below symmetric 16^3 bw %v", a, b)
	}
}

// TestPeakDimMonotone property: growing a torus dimension never lowers that
// dimension's bottleneck.
func TestPeakDimMonotone(t *testing.T) {
	f := func(kRaw uint8) bool {
		k := int(kRaw%12)*2 + 4 // even sizes 4..26
		a := New(k, 4, 4).DimBottleneckPerByte(X)
		b := New(k+2, 4, 4).DimBottleneckPerByte(X)
		return b > a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
