package torus

import (
	"testing"
	"testing/quick"
)

func TestRankCoordsRoundTrip(t *testing.T) {
	shapes := []Shape{
		New(8, 8, 8),
		New(16, 8, 4),
		New(8, 1, 1),
		New(1, 16, 1),
		New(5, 3, 7),
		NewMesh(8, 4, 2, false, true, false),
	}
	for _, s := range shapes {
		for r := 0; r < s.P(); r++ {
			c := s.Coords(r)
			for d := Dim(0); d < NumDims; d++ {
				if c[d] < 0 || c[d] >= s.Size[d] {
					t.Fatalf("%v: rank %d coord %v out of range", s, r, c)
				}
			}
			if got := s.Rank(c); got != r {
				t.Fatalf("%v: Rank(Coords(%d)) = %d", s, r, got)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		s  Shape
		ok bool
	}{
		{New(8, 8, 8), true},
		{New(2, 1, 1), true},
		{Shape{Size: [3]int{0, 8, 8}}, false},
		{Shape{Size: [3]int{1, 1, 1}}, false},
		{Shape{Size: [3]int{2, 2, 2}, Wrap: [3]bool{true, false, false}}, false},
		{NewMesh(8, 8, 8, true, true, false), true},
	}
	for _, c := range cases {
		err := c.s.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) error=%v, want ok=%v", c.s, err, c.ok)
		}
	}
}

func TestDeltaTorus(t *testing.T) {
	s := New(8, 8, 8)
	cases := []struct {
		a, b, want int
	}{
		{0, 1, 1}, {0, 3, 3}, {0, 4, 4}, {0, 5, -3}, {0, 7, -1}, {3, 3, 0},
		{7, 0, 1}, {6, 1, 3},
	}
	for _, c := range cases {
		if got := s.Delta(X, c.a, c.b); got != c.want {
			t.Errorf("Delta(X,%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDeltaMesh(t *testing.T) {
	s := NewMesh(8, 1, 1, false, false, false)
	if got := s.Delta(X, 0, 7); got != 7 {
		t.Errorf("mesh Delta(0,7) = %d, want 7", got)
	}
	if got := s.Delta(X, 7, 0); got != -7 {
		t.Errorf("mesh Delta(7,0) = %d, want -7", got)
	}
}

func TestDeltaMinimality(t *testing.T) {
	// Property: |Delta| is at most k/2 on a torus, and walking Delta hops
	// from a lands on b.
	f := func(kRaw, aRaw, bRaw uint8) bool {
		k := int(kRaw%13) + 3
		s := New(k, 1, 1)
		a, b := int(aRaw)%k, int(bRaw)%k
		d := s.Delta(X, a, b)
		if d > k/2 || -d > k/2 {
			return false
		}
		land := ((a+d)%k + k) % k
		return land == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLongestDimAndMaxDim(t *testing.T) {
	cases := []struct {
		s    Shape
		dim  Dim
		size int
	}{
		{New(8, 8, 8), X, 8},
		{New(8, 32, 16), Y, 32},
		{New(8, 8, 16), Z, 16},
		{New(16, 16, 8), X, 16},
		{New(40, 32, 16), X, 40},
	}
	for _, c := range cases {
		if got := c.s.LongestDim(); got != c.dim {
			t.Errorf("%v LongestDim = %v, want %v", c.s, got, c.dim)
		}
		if got := c.s.Size[c.s.LongestDim()]; got != c.size {
			t.Errorf("%v longest dimension size = %v, want %v", c.s, got, c.size)
		}
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		s    Shape
		want string
	}{
		{New(8, 8, 8), "8x8x8"},
		{New(8, 1, 1), "8"},
		{New(8, 16, 1), "8x16"},
		{NewMesh(8, 8, 2, true, true, false), "8x8x2"},
		{NewMesh(8, 8, 16, true, true, false), "8x8x16M"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestNeighbor(t *testing.T) {
	s := New(8, 8, 8)
	c := Coord{0, 3, 7}
	n, ok := s.Neighbor(c, X, -1)
	if !ok || n != (Coord{7, 3, 7}) {
		t.Errorf("torus X- neighbor of %v = %v,%v", c, n, ok)
	}
	n, ok = s.Neighbor(c, Z, 1)
	if !ok || n != (Coord{0, 3, 0}) {
		t.Errorf("torus Z+ neighbor of %v = %v,%v", c, n, ok)
	}
	m := NewMesh(8, 8, 8, false, true, true)
	if _, ok := m.Neighbor(Coord{0, 0, 0}, X, -1); ok {
		t.Error("mesh edge should have no X- neighbor")
	}
	if _, ok := m.Neighbor(Coord{7, 0, 0}, X, 1); ok {
		t.Error("mesh edge should have no X+ neighbor")
	}
	line := New(8, 1, 1)
	if _, ok := line.Neighbor(Coord{0, 0, 0}, Y, 1); ok {
		t.Error("unit dimension should have no neighbors")
	}
}

func TestLinkCount(t *testing.T) {
	// 8x8x8 torus: 3 dims x 8 links/line x 64 lines x 2 directions = 3072.
	if got := New(8, 8, 8).LinkCount(); got != 3072 {
		t.Errorf("8x8x8 links = %d, want 3072", got)
	}
	// 4-node line mesh: 3 links x 2 directions.
	if got := NewMesh(4, 1, 1, false, false, false).LinkCount(); got != 6 {
		t.Errorf("4M line links = %d, want 6", got)
	}
}

func TestNeighborReciprocal(t *testing.T) {
	// Property: if b is a's neighbor in (d,dir), then a is b's in (d,-dir).
	s := NewMesh(6, 5, 4, true, false, true)
	for r := 0; r < s.P(); r++ {
		c := s.Coords(r)
		for d := Dim(0); d < NumDims; d++ {
			for _, dir := range []int{-1, 1} {
				n, ok := s.Neighbor(c, d, dir)
				if !ok {
					continue
				}
				back, ok2 := s.Neighbor(n, d, -dir)
				if !ok2 || back != c {
					t.Fatalf("neighbor not reciprocal at %v dim %v dir %d", c, d, dir)
				}
			}
		}
	}
}
