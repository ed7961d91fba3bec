package collective

import (
	"alltoall/internal/network"
	"alltoall/internal/torus"
)

// visitOrder is the sequence of destinations a source visits: a node's
// torus.DestOrder in the all-to-all, a fixed destList in a list phase.
type visitOrder interface {
	Len() int
	At(i int) int
}

// destList is a fixed visiting order.
type destList []int32

func (l destList) Len() int     { return len(l) }
func (l destList) At(i int) int { return int(l[i]) }

// schedule is the paper's randomized packet all-to-all (Section 3), the one
// injection order of every strategy and pattern: visit destinations in order,
// injecting `burst` packets of msg per visit, cycling until every destination
// has received its whole message. A list phase is the schedule with the burst
// set to the packets in one message. Where a packet goes first is the route's
// business.
type schedule struct {
	route   *route
	msg     Msg
	burst   int
	startup int64       // per-message CPU cost, charged with each message's first packet
	pace    pacer       // each node's source paces itself on its own copy
	gate    *creditGate // nil: no flow control
	// list marks a list phase, which reports completion without consulting
	// the pacer; the all-to-all finds it after the pacer lets it look, which
	// shows in the event count.
	list   bool
	column *columnGate // nil: one list; else VMesh's column leg follows it
}

// columnGate holds each node's VMesh column leg (vmesh.go) until the relay has
// counted the node's whole row payload into got; the reception that completes
// it re-polls the source, which opens the leg. Slices are indexed by node.
type columnGate struct {
	dests   [][]int32 // each node's column list
	msg     Msg
	startup int64
	want    int64   // the row payload a node receives
	got     []int64 // row payload received so far
	opened  []int64 // when the node's source started its column leg
}

// parkRetry is how long a source that waits for a reception (a TPS credit, a
// VMesh row) waits on time: the reception re-polls it, so this is a safety net.
const parkRetry = 4 * network.MaxPacketBytes

// sources builds every node's source for one phase: node n visits order(n).
func (sc schedule) sources(order func(n int) visitOrder) []network.Source {
	srcs := make([]network.Source, sc.route.shape.P())
	for n := range srcs {
		srcs[n] = &burstSource{schedule: sc, self: int32(n), order: order(n)}
	}
	return srcs
}

// burstSource is one node's cursor through the schedule.
type burstSource struct {
	schedule
	self  int32
	order visitOrder

	idx, pass, inBurst int
	leg                uint8 // 1 once the column gate has opened; packets carry it in Kind
}

func (s *burstSource) Next(now int64) (network.PacketSpec, network.SrcStatus, int64) {
	for s.list && s.idx >= s.order.Len() {
		g := s.column
		if g == nil {
			return network.PacketSpec{}, network.SrcDone, 0
		}
		if g.got[s.self] < g.want {
			return network.PacketSpec{}, network.SrcWait, now + parkRetry
		}
		g.opened[s.self] = now
		s.msg, s.burst, s.startup, s.order = g.msg, g.msg.NPkts, g.startup, destList(g.dests[s.self])
		s.idx, s.column, s.leg = 0, nil, 1
	}
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
		spec := s.route.packet(s.self, int32(s.order.At(s.idx)), s.msg, j, s.startup)
		spec.Kind += s.leg
		if s.gate != nil && !s.gate.spend(s.self, spec) {
			return network.PacketSpec{}, network.SrcWait, now + parkRetry // until a credit comes back
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

// allToAll builds the all-to-all's sources over a route: node n visits the
// others in its torus.DestOrder. The direct strategies, TPS and XYZ differ
// beyond the route only in pacing strictness and per-destination startup
// cost; a gate adds TPS credit flow control.
func (o *Options) allToAll(rt *route, gate *creditGate) []network.Source {
	alpha := o.Calib.AlphaAR
	if o.Strategy == StratMPI {
		alpha = o.Calib.AlphaMPI
	}
	sc := schedule{route: rt, msg: NewMsg(o.MsgBytes, o.Calib.HeaderBytes), burst: o.Burst, startup: alpha,
		pace: o.pacer(o.Strategy == StratThrottle), gate: gate}
	return sc.sources(func(n int) visitOrder { return torus.NewDestOrder(o.Shape.P(), n, o.Seed) })
}

// runBurst runs the all-to-all schedule over a route.
func runBurst(opts *Options, rt *route) (Result, error) {
	h := &relay{route: rt, recv: make([]int64, opts.Shape.P())}
	nw, t, err := opts.runPhase(string(opts.Strategy), opts.allToAll(rt, nil), h, h.recv, opts.allToAllPayload)
	if err != nil {
		return Result{}, err
	}
	return opts.result(t, nw.Stats()), nil
}

// runLists runs a prepared run in which node n sends one msg to each of
// dests[n] over rt, in list order, then its column list when column is set;
// want(n) is the payload node n must have received by the end. VMesh and
// every pattern run (pattern.go) are list phases.
func (o *Options) runLists(label string, rt *route, dests [][]int32, msg Msg, startup int64, pace pacer,
	column *columnGate, want func(node int) int64) (*network.Network, int64, error) {
	sc := schedule{route: rt, msg: msg, burst: msg.NPkts, startup: startup, pace: pace, list: true, column: column}
	h := &relay{route: rt, recv: make([]int64, len(dests)), gate: column}
	return o.runPhase(label, sc.sources(func(n int) visitOrder { return destList(dests[n]) }), h, h.recv, want)
}
