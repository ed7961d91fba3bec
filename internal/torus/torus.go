// Package torus provides the geometry of Blue Gene/L style 3D torus and mesh
// partitions: coordinate/rank mapping, minimal-path routing distances, link
// counting, and the exact peak all-to-all time used as the "percent of peak"
// denominator throughout the reproduction.
//
// Shapes follow the paper's convention: a partition is X x Y x Z where each
// dimension is independently a torus (wrap links present) or a mesh (no wrap
// links); lower-dimensional partitions (lines, planes) are represented with
// size-1 dimensions.
package torus

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrBadShape is wrapped by every shape-validation and shape-parsing error,
// so callers at any layer can classify them with errors.Is (the HTTP service
// maps them to 400 Bad Request).
var ErrBadShape = errors.New("torus: bad shape")

// Dim indexes the three torus dimensions.
type Dim int

// The three dimensions, in the dimension order used by deterministic
// (dimension-ordered) routing on Blue Gene/L: first X, then Y, then Z.
const (
	X Dim = iota
	Y
	Z
)

// NumDims is the number of torus dimensions.
const NumDims = 3

func (d Dim) String() string {
	switch d {
	case X:
		return "X"
	case Y:
		return "Y"
	case Z:
		return "Z"
	}
	return fmt.Sprintf("Dim(%d)", int(d))
}

// Coord is a node coordinate in the partition.
type Coord [NumDims]int

// Shape describes a (possibly asymmetric) 3D torus or mesh partition.
type Shape struct {
	Size [NumDims]int  // nodes per dimension; 1 collapses the dimension
	Wrap [NumDims]bool // true = torus (wrap link), false = mesh
}

// New returns a fully wrapped (torus) shape of the given dimensions.
func New(x, y, z int) Shape {
	return Shape{Size: [NumDims]int{x, y, z}, Wrap: [NumDims]bool{x > 2, y > 2, z > 2}}
}

// NewMesh returns a shape with per-dimension wrap control. A dimension of
// size <= 2 never has wrap links (a wrap link would duplicate the mesh link).
func NewMesh(x, y, z int, wrapX, wrapY, wrapZ bool) Shape {
	s := Shape{Size: [NumDims]int{x, y, z}, Wrap: [NumDims]bool{wrapX, wrapY, wrapZ}}
	for d := 0; d < NumDims; d++ {
		if s.Size[d] <= 2 {
			s.Wrap[d] = false
		}
	}
	return s
}

// Validate reports whether the shape is usable. Every error wraps
// ErrBadShape.
func (s Shape) Validate() error {
	for d := 0; d < NumDims; d++ {
		if s.Size[d] < 1 {
			return fmt.Errorf("%w: dimension %v has size %d (must be >= 1)", ErrBadShape, Dim(d), s.Size[d])
		}
		if s.Size[d] <= 2 && s.Wrap[d] {
			return fmt.Errorf("%w: dimension %v of size %d cannot wrap", ErrBadShape, Dim(d), s.Size[d])
		}
	}
	if s.P() < 2 {
		return fmt.Errorf("%w: partition must have at least 2 nodes, got %d", ErrBadShape, s.P())
	}
	return nil
}

// Parse reads the textual shape grammar shared by the CLIs and the HTTP
// service: "8", "8x8", "8x32x16", with an optional M (or m) suffix per
// dimension marking it as a mesh (no wrap links). Unnamed trailing
// dimensions default to size 1. Errors wrap ErrBadShape.
func Parse(s string) (Shape, error) {
	parts := strings.Split(strings.ToLower(strings.TrimSpace(s)), "x")
	if len(parts) < 1 || len(parts) > NumDims {
		return Shape{}, fmt.Errorf("%w: %q: want 1-%d dimensions", ErrBadShape, s, NumDims)
	}
	size := [NumDims]int{1, 1, 1}
	wrap := [NumDims]bool{}
	for i, p := range parts {
		mesh := strings.HasSuffix(p, "m")
		p = strings.TrimSuffix(p, "m")
		v, err := strconv.Atoi(p)
		if err != nil || v < 1 {
			return Shape{}, fmt.Errorf("%w: %q: bad dimension %q", ErrBadShape, s, p)
		}
		size[i] = v
		wrap[i] = !mesh && v > 2
	}
	return NewMesh(size[0], size[1], size[2], wrap[0], wrap[1], wrap[2]), nil
}

// Canon renders the shape in the Parse grammar without collapsing unit
// dimensions, so distinct shapes always render distinctly ("8x1x8" vs
// "8x8x1", which String both abbreviates to "8x8"). Parse(s.Canon()) == s
// for every valid shape; canonical request keys and the service's JSON wire
// format use this encoding.
func (s Shape) Canon() string {
	var b strings.Builder
	for d := 0; d < NumDims; d++ {
		if d > 0 {
			b.WriteByte('x')
		}
		fmt.Fprintf(&b, "%d", s.Size[d])
		if !s.Wrap[d] && s.Size[d] > 2 {
			b.WriteByte('M')
		}
	}
	return b.String()
}

// MarshalText renders the shape as Canon, so a Shape field in a JSON struct
// is its Parse-grammar string. The unset shape renders as "" ("0x0x0" would
// not parse back).
func (s Shape) MarshalText() ([]byte, error) {
	if s == (Shape{}) {
		return nil, nil
	}
	return []byte(s.Canon()), nil
}

// UnmarshalText is Parse; "" reads back as the unset shape.
func (s *Shape) UnmarshalText(text []byte) error {
	*s = Shape{}
	if len(text) == 0 {
		return nil
	}
	var err error
	*s, err = Parse(string(text))
	return err
}

// P returns the total number of nodes in the partition.
func (s Shape) P() int {
	return s.Size[X] * s.Size[Y] * s.Size[Z]
}

// MaxDim returns M = max(Px, Py, Pz), the longest dimension size.
func (s Shape) MaxDim() int {
	m := s.Size[0]
	for d := 1; d < NumDims; d++ {
		if s.Size[d] > m {
			m = s.Size[d]
		}
	}
	return m
}

// LongestDim returns the dimension with the largest size; ties are broken in
// X, Y, Z order, matching the paper's dimension-order conventions.
func (s Shape) LongestDim() Dim {
	best := X
	for d := Dim(1); d < NumDims; d++ {
		if s.Size[d] > s.Size[best] {
			best = d
		}
	}
	return best
}

// Symmetric reports whether all dimensions of size > 1 have equal size and
// identical wrap, i.e. the shape is a symmetric line/plane/cube in the
// paper's sense.
func (s Shape) Symmetric() bool {
	size, wrap, seen := 0, false, false
	for d := 0; d < NumDims; d++ {
		if s.Size[d] == 1 {
			continue
		}
		if !seen {
			size, wrap, seen = s.Size[d], s.Wrap[d], true
			continue
		}
		if s.Size[d] != size || s.Wrap[d] != wrap {
			return false
		}
	}
	return true
}

// Rank converts a coordinate to a linear rank (X fastest, then Y, then Z),
// the standard Blue Gene/L XYZ mapping.
func (s Shape) Rank(c Coord) int {
	return c[X] + s.Size[X]*(c[Y]+s.Size[Y]*c[Z])
}

// Coords converts a linear rank back to a coordinate.
func (s Shape) Coords(rank int) Coord {
	var c Coord
	c[X] = rank % s.Size[X]
	rank /= s.Size[X]
	c[Y] = rank % s.Size[Y]
	c[Z] = rank / s.Size[Y]
	return c
}

// Delta returns the signed minimal-path hop count from a to b in dimension d:
// positive means travel in the + direction. On a torus dimension the shorter
// way around is chosen; exact ties (distance Size/2 on an even ring) are
// broken toward the + direction.
func (s Shape) Delta(d Dim, a, b int) int {
	diff := b - a
	if !s.Wrap[d] {
		return diff
	}
	k := s.Size[d]
	if diff < 0 {
		diff += k
	}
	// diff in [0, k)
	if 2*diff <= k {
		return diff
	}
	return diff - k
}

// MinHops returns the per-dimension signed minimal hop vector from a to b.
func (s Shape) MinHops(a, b Coord) [NumDims]int {
	var h [NumDims]int
	for d := Dim(0); d < NumDims; d++ {
		h[d] = s.Delta(d, a[d], b[d])
	}
	return h
}

// HopCount returns the total minimal hop distance between two ranks.
func (s Shape) HopCount(a, b int) int {
	ha := s.MinHops(s.Coords(a), s.Coords(b))
	total := 0
	for _, h := range ha {
		if h < 0 {
			h = -h
		}
		total += h
	}
	return total
}

// AvgHops returns the average minimal hop distance in dimension d over all
// ordered coordinate pairs (including equal coordinates), as a float.
// For a torus of even size k this is k/4; for a mesh it is (k^2-1)/(3k).
func (s Shape) AvgHops(d Dim) float64 {
	k := s.Size[d]
	total := 0
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			h := s.Delta(d, a, b)
			if h < 0 {
				h = -h
			}
			total += h
		}
	}
	return float64(total) / float64(k*k)
}

// String renders the shape in the paper's notation, e.g. "8x8x16" or
// "8x8x2M" where M marks a mesh dimension.
func (s Shape) String() string {
	var b strings.Builder
	first := true
	for d := 0; d < NumDims; d++ {
		if s.Size[d] == 1 && !(s.P() == 1) {
			// Collapse unit dimensions unless everything is unit.
			continue
		}
		if !first {
			b.WriteByte('x')
		}
		first = false
		fmt.Fprintf(&b, "%d", s.Size[d])
		if !s.Wrap[d] && s.Size[d] > 2 {
			b.WriteByte('M')
		}
	}
	if first {
		return "1"
	}
	return b.String()
}

// Neighbor returns the rank of the neighbor of c in dimension d, direction
// dir (+1 or -1), and ok=false if no such link exists (mesh edge).
func (s Shape) Neighbor(c Coord, d Dim, dir int) (Coord, bool) {
	n := c
	v := c[d] + dir
	if v < 0 || v >= s.Size[d] {
		if !s.Wrap[d] {
			return n, false
		}
		if v < 0 {
			v += s.Size[d]
		} else {
			v -= s.Size[d]
		}
	}
	if s.Size[d] == 1 {
		return n, false
	}
	n[d] = v
	return n, true
}

// LinkCount returns the total number of unidirectional links in the
// partition.
func (s Shape) LinkCount() int {
	total := 0
	for d := Dim(0); d < NumDims; d++ {
		total += s.DimLinks(d)
	}
	return total
}

// DimLinks returns the number of unidirectional links along dimension d: two
// per neighbouring pair on each of its P/k lines, with the wrap-around pair
// on a torus dimension and none on a unit one.
func (s Shape) DimLinks(d Dim) int {
	k := s.Size[d]
	if k == 1 {
		return 0
	}
	perLine := k - 1
	if s.Wrap[d] {
		perLine = k
	}
	return 2 * perLine * (s.P() / k)
}
