package collective

import (
	"alltoall/internal/network"
	"alltoall/internal/torus"
)

// burstSource is the paper's randomized packet all-to-all: visit
// destinations in a per-node pseudorandom order, injecting `burst` packets
// per visit, cycling until every destination has received its whole
// message. The per-destination startup alpha is charged with the first
// packet of each destination. Where a packet goes first is the route's
// business.
type burstSource struct {
	route *route
	self  int32
	order torus.DestOrder
	msg   Msg
	burst int
	alpha int64
	pace  pacer

	idx, pass, inBurst int
}

func (s *burstSource) Next(now int64) (network.PacketSpec, network.SrcStatus, int64) {
	if retry, ok := s.pace.gate(now); !ok {
		return network.PacketSpec{}, network.SrcWait, retry
	}
	for {
		if s.idx >= s.order.Len() {
			s.idx = 0
			s.pass++
		}
		if s.pass*s.burst >= s.msg.NPkts {
			return network.PacketSpec{}, network.SrcDone, 0
		}
		j := s.pass*s.burst + s.inBurst
		if j >= s.msg.NPkts {
			s.inBurst = 0
			s.idx++
			continue
		}
		spec := s.route.packet(s.self, int32(s.order.At(s.idx)), s.msg, j, s.alpha)
		s.inBurst++
		if s.inBurst == s.burst {
			s.inBurst = 0
			s.idx++
		}
		s.pace.charge(now, spec.Size)
		return spec, network.SrcReady, 0
	}
}

// runBurst runs the burst schedule over a route: the direct strategies, TPS
// and XYZ, which beyond the route differ only in pacing strictness and
// per-destination startup cost.
func runBurst(opts *Options, rt *route) (Result, error) {
	alpha := opts.Calib.AlphaAR
	if opts.Strategy == StratMPI {
		alpha = opts.Calib.AlphaMPI
	}
	p := opts.Shape.P()
	msg := NewMsg(opts.MsgBytes, opts.Calib.HeaderBytes)
	pace := opts.pacer(opts.Strategy == StratThrottle)
	sources := make([]network.Source, p)
	for n := range sources {
		sources[n] = &burstSource{
			route: rt,
			self:  int32(n),
			order: torus.NewDestOrder(p, n, opts.Seed),
			msg:   msg,
			burst: opts.Burst,
			alpha: alpha,
			pace:  pace,
		}
	}
	h := &relay{route: rt, recv: make([]int64, p)}
	nw, t, err := opts.runPhase(string(opts.Strategy), sources, h, h.recv, opts.allToAllPayload)
	if err != nil {
		return Result{}, err
	}
	return opts.result(t, nw.Stats()), nil
}

// listSource sends one message to each node of a fixed list, packet by
// packet. Unlike the burst schedule it reports completion without consulting
// the pacer, which shows in the event count.
type listSource struct {
	route   *route
	self    int32
	dests   []int32
	msg     Msg
	startup int64 // per-message CPU cost, charged with each message's first packet
	pace    pacer

	di, pj int
}

func (s *listSource) Next(now int64) (network.PacketSpec, network.SrcStatus, int64) {
	if s.di >= len(s.dests) {
		return network.PacketSpec{}, network.SrcDone, 0
	}
	if retry, ok := s.pace.gate(now); !ok {
		return network.PacketSpec{}, network.SrcWait, retry
	}
	spec := s.route.packet(s.self, s.dests[s.di], s.msg, s.pj, s.startup)
	s.pj++
	if s.pj == s.msg.NPkts {
		s.pj = 0
		s.di++
	}
	s.pace.charge(now, spec.Size)
	return spec, network.SrcReady, 0
}

// runLists runs one phase of a prepared run in which node n sends one msg to
// each of dests[n] over rt, in list order; want(n) is the payload node n must
// have received by the end. VMesh's two combining phases and every pattern
// run (pattern.go) are list phases.
func (o *Options) runLists(label string, rt *route, dests [][]int32, msg Msg, startup int64, pace pacer,
	want func(node int) int64) (*network.Network, int64, error) {
	sources := make([]network.Source, len(dests))
	for n := range sources {
		sources[n] = &listSource{route: rt, self: int32(n), dests: dests[n], msg: msg, startup: startup, pace: pace}
	}
	h := &relay{route: rt, recv: make([]int64, len(dests))}
	return o.runPhase(label, sources, h, h.recv, want)
}
