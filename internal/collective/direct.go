package collective

import (
	"context"

	"alltoall/internal/network"
	"alltoall/internal/torus"
)

// Packet kinds used across the strategies.
const (
	kindDirect uint8 = iota
	kindTPS1
	kindTPS2
	kindTPSCredit
	kindVMesh1
	kindVMesh2
	kindXYZ1 // X-stage packet of the three-phase indirect scheme
	kindXYZ2 // Y-stage
	kindXYZ3 // Z-stage
)

// directSource implements the paper's randomized packet all-to-all: visit
// destinations in a per-node pseudorandom order, injecting `burst` packets
// per visit, cycling until every destination has received its whole
// message. The per-destination startup alpha is charged with the first
// packet of each destination.
type directSource struct {
	order torus.DestOrder
	msg   Msg
	burst int
	alpha int64
	det   bool
	pace  pacer

	idx, pass, inBurst int
	passes             int
}

func newDirectSource(shape torus.Shape, self int, msg Msg, burst int, alpha int64, det bool, seed uint64, pace pacer) *directSource {
	passes := (msg.NPkts + burst - 1) / burst
	return &directSource{
		order:  torus.NewDestOrder(shape.P(), self, seed),
		msg:    msg,
		burst:  burst,
		alpha:  alpha,
		det:    det,
		pace:   pace,
		passes: passes,
	}
}

func (s *directSource) Next(now int64) (network.PacketSpec, network.SrcStatus, int64) {
	if retry, ok := s.pace.gate(now); !ok {
		return network.PacketSpec{}, network.SrcWait, retry
	}
	for {
		if s.idx >= s.order.Len() {
			s.idx = 0
			s.pass++
		}
		if s.pass >= s.passes {
			return network.PacketSpec{}, network.SrcDone, 0
		}
		j := s.pass*s.burst + s.inBurst
		if j >= s.msg.NPkts {
			s.inBurst = 0
			s.idx++
			continue
		}
		dst := int32(s.order.At(s.idx))
		spec := network.PacketSpec{
			Dst:     dst,
			Size:    s.msg.PktSize(j),
			Payload: s.msg.PktPayload(j),
			Det:     s.det,
			Kind:    kindDirect,
			// Spread packets across the injection FIFOs (as BG/L's runtime
			// does) so one congested direction cannot head-of-line block
			// injection toward idle links.
			Class: int8(dst % 60),
		}
		if j == 0 {
			spec.ExtraCPU = s.alpha
		}
		s.inBurst++
		if s.inBurst == s.burst {
			s.inBurst = 0
			s.idx++
		}
		s.pace.charge(now, spec.Size)
		return spec, network.SrcReady, 0
	}
}

// directHandler counts delivered payload per node; all deliveries are final.
type directHandler struct {
	recvPayload []int64
}

func (h *directHandler) OnDeliver(d network.Delivered, fw []network.PacketSpec) ([]network.PacketSpec, int64, bool) {
	h.recvPayload[d.Node] += int64(d.Payload)
	return fw, 0, true
}

// runDirect runs the four direct strategies, which differ only in routing
// mode, pacing strictness and per-destination startup cost.
func runDirect(opts *Options) (Result, error) {
	det := opts.Strategy == StratDR
	throttle := opts.Strategy == StratThrottle
	alpha := opts.Calib.AlphaAR
	if opts.Strategy == StratMPI {
		alpha = opts.Calib.AlphaMPI
	}
	p := opts.Shape.P()
	msg := NewMsg(opts.MsgBytes, opts.Calib.HeaderBytes)
	sources := make([]network.Source, p)
	for n := 0; n < p; n++ {
		sources[n] = newDirectSource(opts.Shape, n, msg, opts.Burst, alpha, det, opts.Seed,
			opts.pacer(throttle))
	}
	h := &directHandler{recvPayload: make([]int64, p)}
	nw, t, err := opts.RunPhase(string(opts.Strategy), sources, h, h.recvPayload, opts.allToAllPayload)
	if err != nil {
		return Result{}, err
	}
	return opts.result(t, nw.Stats()), nil
}

// RunAR runs the direct adaptive-routing strategy (the paper's AR).
func RunAR(opts Options) (Result, error) {
	return RunContext(context.Background(), StratAR, opts)
}

// RunDR runs the direct strategy on the deterministic bubble VC with
// dimension-ordered routing.
func RunDR(opts Options) (Result, error) {
	return RunContext(context.Background(), StratDR, opts)
}

// RunThrottled runs AR with injection paced to the bisection bandwidth.
func RunThrottled(opts Options) (Result, error) {
	return RunContext(context.Background(), StratThrottle, opts)
}

// RunMPI runs the production-MPI-style baseline: the same randomized direct
// schedule with the heavier per-destination startup of the MPI layer.
func RunMPI(opts Options) (Result, error) {
	return RunContext(context.Background(), StratMPI, opts)
}
