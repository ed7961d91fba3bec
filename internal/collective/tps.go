package collective

import "alltoall/internal/torus"

// SelectTPSLinearDim implements the paper's rule for choosing the Two Phase
// Schedule's phase-1 dimension (Section 4.1): prefer a dimension whose
// removal leaves the two planar dimensions symmetric (taking the longest such
// dimension); otherwise take the longest dimension, which is the bottleneck.
func SelectTPSLinearDim(s torus.Shape) torus.Dim {
	best := torus.Dim(-1)
	for d := torus.Dim(0); d < torus.NumDims; d++ {
		if s.Size[d] == 1 {
			continue
		}
		o1, o2 := otherDims(d)
		if s.Size[o1] == s.Size[o2] && (best < 0 || s.Size[d] > s.Size[best]) {
			best = d
		}
	}
	if best >= 0 {
		return best
	}
	return s.LongestDim()
}

func otherDims(d torus.Dim) (torus.Dim, torus.Dim) {
	switch d {
	case torus.X:
		return torus.Y, torus.Z
	case torus.Y:
		return torus.X, torus.Z
	default:
		return torus.X, torus.Y
	}
}

// runTPS runs the Two Phase Schedule: the burst schedule over tpsRoute, gated
// by credit windows when Request.TPSCreditWindow > 0.
func runTPS(opts *Options) (Result, error) {
	linear := SelectTPSLinearDim(opts.Shape)
	if opts.TPSLinear > 0 {
		linear = opts.TPSLinear.Dim()
	}
	run := runBurst
	if opts.TPSCreditWindow > 0 {
		run = runTPSCredit
	}
	r, err := run(opts, tpsRoute(opts.Shape, linear))
	if err != nil {
		return Result{}, err
	}
	r.TPSLinearDim = LinearDim(linear + 1)
	return r, nil
}
