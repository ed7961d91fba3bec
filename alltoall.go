// Package alltoall reproduces "Performance Analysis and Optimization of
// All-to-all Communication on the Blue Gene/L Supercomputer" (Kumar &
// Heidelberger, IBM Research / ICPP 2008) as a simulation study.
//
// It bundles three things:
//
//   - a packet-level discrete-event simulator of the Blue Gene/L 3D torus
//     interconnect (internal/network): input-queued routers with two
//     dynamic virtual channels and a bubble escape channel, token flow
//     control, virtual cut-through, minimal adaptive routing with
//     join-the-shortest-queue output selection, injection/reception FIFOs
//     and a serial CPU model for packet handling;
//
//   - the paper's all-to-all strategies (internal/collective): the direct
//     randomized AR scheme on adaptive routing, DR on deterministic
//     dimension-ordered routing, bisection-rate throttling, an MPI-style
//     baseline, the Two Phase Schedule (TPS) for asymmetric tori, and the
//     2D virtual-mesh message-combining scheme (VMesh) for short messages;
//
//   - the paper's analytic performance model (internal/model): Equations
//     1-4 and the measured Blue Gene/L calibration constants.
//
// Times are reported both in abstract units (1 unit = 1 byte-time on a
// torus link, beta = 6.48 ns) and in calibrated seconds.
//
// A run is a Request value and Run runs it; req.Key() identifies the result:
//
//	req := alltoall.Request{Strategy: alltoall.TPS,
//		Shape: alltoall.NewTorus(8, 32, 16), MsgBytes: 1024}
//	res, err := alltoall.Run(ctx, req)
//	fmt.Printf("%.1f%% of peak\n", res.PercentPeak)
//
// Long-lived serving of such jobs over HTTP is cmd/aaserve.
package alltoall

import (
	"alltoall/internal/collective"
	"alltoall/internal/model"
	"alltoall/internal/network"
	"alltoall/internal/torus"
)

// Shape describes a 3D torus or mesh partition (per-dimension wrap).
type Shape = torus.Shape

// Dim indexes the torus dimensions X, Y, Z.
type Dim = torus.Dim

// Dimension constants.
const (
	X = torus.X
	Y = torus.Y
	Z = torus.Z
)

// NewTorus returns a fully wrapped partition of the given dimensions; use 1
// to collapse a dimension (lines and planes).
func NewTorus(x, y, z int) Shape { return torus.New(x, y, z) }

// NewMesh returns a partition with per-dimension wrap control ("M"
// dimensions in the paper's Table 2 are meshes).
func NewMesh(x, y, z int, wrapX, wrapY, wrapZ bool) Shape {
	return torus.NewMesh(x, y, z, wrapX, wrapY, wrapZ)
}

// Strategy names an all-to-all algorithm.
type Strategy = collective.Strategy

// The implemented strategies.
const (
	AR       = collective.StratAR       // direct, randomized, adaptive routing
	DR       = collective.StratDR       // direct, deterministic dimension-order routing
	Throttle = collective.StratThrottle // AR with strict bisection-rate injection
	MPI      = collective.StratMPI      // production MPI-style baseline
	TPS      = collective.StratTPS      // Two Phase Schedule (indirect, asymmetric tori)
	VMesh    = collective.StratVMesh    // 2D virtual-mesh combining (short messages)
	XYZ      = collective.StratXYZ      // 3-phase dimension-ordered indirect (Randomaccess-style)
)

// Strategies lists every implemented strategy.
func Strategies() []Strategy { return collective.Strategies() }

// Options is what an Option edits: the Request plus what it cannot say; see
// collective.Options for field documentation.
type Options = collective.Options

// Result reports a run; see collective.Result for field documentation.
type Result = collective.Result

// Params configures the simulated machine; the zero value in Options
// selects network.DefaultParams.
type Params = network.Params

// DefaultParams returns the Blue Gene/L-derived machine calibration.
func DefaultParams() Params { return network.DefaultParams() }

// Calib holds the paper's measured model constants.
type Calib = model.Calib

// DefaultCalib returns the constants measured in the paper (Section 3).
func DefaultCalib() Calib { return model.DefaultCalib() }

// PeakTime returns the Equation 2 network-limited all-to-all time in time
// units for per-pair payload m: T = P * C * m with contention factor
// C = M/8 on a torus.
func PeakTime(s Shape, m int) float64 { return model.PeakTime(s, m) }

// PredictDirect returns the Equation 3 analytic prediction for the direct
// strategies, in time units.
func PredictDirect(c Calib, s Shape, m int) float64 { return model.DirectTime(c, s, m) }

// PredictVMesh returns the Equation 4 analytic prediction for the virtual
// mesh scheme with factorization pvx x pvy, in time units.
func PredictVMesh(c Calib, s Shape, pvx, pvy, m int) float64 {
	return model.VMeshTime(c, s, pvx, pvy, m)
}

// SelectTPSLinearDim exposes the Two Phase Schedule's phase-1 dimension
// rule (Section 4.1).
func SelectTPSLinearDim(s Shape) Dim { return collective.SelectTPSLinearDim(s) }

// BalancedVMeshFactor returns the default row/column factorization used by
// the virtual-mesh scheme.
func BalancedVMeshFactor(p int) (cols, rows int) { return collective.BalancedFactor(p) }
