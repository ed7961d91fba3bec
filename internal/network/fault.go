package network

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"alltoall/internal/torus"
)

// Deterministic fault injection.
//
// A FaultSchedule is a list of timed link faults: a link can go down and come
// back up, be killed permanently, or have its bandwidth degraded (stretched
// wire occupancy). Faults are ordinary simulator events - each scheduled
// transition becomes an evFault entry in the strict (t, node, kind, arg)
// total order - so a faulted run is byte-identical at any shard count,
// exactly like a healthy one.
//
// Semantics:
//
//   - Down/Kill: the router stops granting onto the link (freeOutputs masks
//     the direction out), so queued packets reroute via the adaptive dynamic
//     VCs or, when minimal routing has no live direction left, flip to the
//     long way around the ring (rerouteNode/flipDeadDims). A packet already
//     committed to the wire when the link dies completes its transfer (the
//     arrival event is already scheduled). Credits owed across a dead link
//     return at their exact time like any other.
//   - Up: the direction rejoins freeOutputs and an arbitration pass runs at
//     the reopened link. The outage [down, up) accrues Stats.DeadLinkTicks.
//     An Up for a killed link is rejected at validation.
//   - Degrade: the link's wire occupancy is multiplied by Factor (a packet of
//     S bytes holds the link S*Factor units, and its cut-through header takes
//     PacketGranule*Factor to cross). Factor 1 restores full speed.
//
// On a mesh dimension a dead link cannot be routed around (there is no other
// way); packets needing it stall and the run fails with the standard
// deadlock diagnostic, which is the honest answer for a partitioned mesh.

// FaultAction is the kind of one scheduled fault transition.
type FaultAction uint8

const (
	// FaultDown takes the link out of service at T.
	FaultDown FaultAction = iota
	// FaultUp returns a downed link to service at T.
	FaultUp
	// FaultKill takes the link out of service permanently.
	FaultKill
	// FaultDegrade multiplies the link's wire occupancy by Factor from T on.
	FaultDegrade
)

func (a FaultAction) String() string {
	switch a {
	case FaultDown:
		return "down"
	case FaultUp:
		return "up"
	case FaultKill:
		return "kill"
	case FaultDegrade:
		return "degrade"
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// FaultEvent is one scheduled transition of the output link (Node, Dir).
// Faults are attached to a node's OUTPUT direction: killing (n, +x) stops n
// from sending toward +x but leaves the reverse wire (the +x neighbour's -x
// output) alive; fail both to sever the cable.
type FaultEvent struct {
	T      int64 // simulation time of the transition (>= 0)
	Node   int32 // rank owning the output link
	Dir    int   // output direction, 0..5 (2*dim, +1 for the - direction)
	Action FaultAction
	Factor int32 // FaultDegrade only: wire-occupancy multiplier, 1..MaxDegradeFactor
}

// MaxDegradeFactor bounds FaultDegrade stretch factors so stretched wire
// times stay comfortably inside int32 window accounting.
const MaxDegradeFactor = 4096

// FaultSchedule is a deterministic set of link fault transitions. The zero
// value (or an empty Events list) is a valid schedule that faults nothing; a
// run given an empty schedule (RunSpec.Faults) is byte-identical to one
// given none.
type FaultSchedule struct {
	Events []FaultEvent
}

// dirNames maps direction indices to the spec grammar's tokens.
var dirNames = [numDirs]string{"+x", "-x", "+y", "-y", "+z", "-z"}

// dirByName is the inverse of dirNames; -1 = unknown.
func dirByName(s string) int {
	for d, n := range dirNames {
		if s == n {
			return d
		}
	}
	return -1
}

// DirName returns the spec-grammar token for a direction index ("+x".."-z").
func DirName(dir int) string {
	if dir < 0 || dir >= numDirs {
		return fmt.Sprintf("dir(%d)", dir)
	}
	return dirNames[dir]
}

// ParseFaults parses the -faults spec grammar: semicolon-separated events of
// the form
//
//	t:node:dir:action
//
// where t is the transition time (decimal, >= 0), node the rank, dir one of
// +x -x +y -y +z -z, and action one of down, up, kill, or xN (degrade: wire
// occupancy multiplied by N, e.g. x4). Whitespace around events is ignored;
// an empty string yields an empty schedule. Example:
//
//	0:12:+x:kill; 5000:40:-y:down; 9000:40:-y:up; 0:7:+z:x4
//
// Shape-dependent validation (node range, link existence, no revival after a
// kill) is Validate's.
func ParseFaults(spec string) (*FaultSchedule, error) {
	fs := &FaultSchedule{}
	for _, raw := range strings.Split(spec, ";") {
		ev := strings.TrimSpace(raw)
		if ev == "" {
			continue
		}
		parts := strings.Split(ev, ":")
		if len(parts) != 4 {
			return nil, fmt.Errorf("faults: event %q: want t:node:dir:action", ev)
		}
		t, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
		if err != nil || t < 0 {
			return nil, fmt.Errorf("faults: event %q: bad time %q", ev, parts[0])
		}
		node, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 32)
		if err != nil || node < 0 {
			return nil, fmt.Errorf("faults: event %q: bad node %q", ev, parts[1])
		}
		dir := dirByName(strings.TrimSpace(parts[2]))
		if dir < 0 {
			return nil, fmt.Errorf("faults: event %q: bad direction %q (want +x -x +y -y +z -z)", ev, parts[2])
		}
		f := FaultEvent{T: t, Node: int32(node), Dir: dir}
		switch act := strings.TrimSpace(parts[3]); act {
		case "down":
			f.Action = FaultDown
		case "up":
			f.Action = FaultUp
		case "kill":
			f.Action = FaultKill
		default:
			if !strings.HasPrefix(act, "x") {
				return nil, fmt.Errorf("faults: event %q: bad action %q (want down, up, kill, or xN)", ev, parts[3])
			}
			n, err := strconv.ParseInt(act[1:], 10, 32)
			if err != nil || n < 1 || n > MaxDegradeFactor {
				return nil, fmt.Errorf("faults: event %q: bad degrade factor %q (want x1..x%d)", ev, act, MaxDegradeFactor)
			}
			f.Action = FaultDegrade
			f.Factor = int32(n)
		}
		fs.Events = append(fs.Events, f)
	}
	return fs, nil
}

// String encodes the schedule in the ParseFaults grammar, one event per
// semicolon-separated field in Events order. ParseFaults(s.String()) yields
// an identical schedule (FuzzFaultSchedule holds the round-trip to that).
func (fs *FaultSchedule) String() string {
	if fs == nil || len(fs.Events) == 0 {
		return ""
	}
	var b strings.Builder
	for i, f := range fs.Events {
		if i > 0 {
			b.WriteByte(';')
		}
		act := f.Action.String()
		if f.Action == FaultDegrade {
			act = "x" + strconv.FormatInt(int64(f.Factor), 10)
		}
		fmt.Fprintf(&b, "%d:%d:%s:%s", f.T, f.Node, DirName(f.Dir), act)
	}
	return b.String()
}

// faultLess is the canonical schedule order: (T, Node, Dir, Action, Factor).
// It matches the (t, node, kind, arg) event order - same-tick faults at one
// node dispatch in ascending canonical index - so the derived order, not the
// textual one, decides ties.
func faultLess(a, b FaultEvent) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Dir != b.Dir {
		return a.Dir < b.Dir
	}
	if a.Action != b.Action {
		return a.Action < b.Action
	}
	return a.Factor < b.Factor
}

// Validate checks the schedule against a machine of the given shape: times
// >= 0, nodes inside it, links that exist (not a mesh edge), known actions,
// degrade factors in 1..MaxDegradeFactor and no Up after a Kill of the same
// link. Request validation and RunSharded both call it; nil is valid.
func (fs *FaultSchedule) Validate(shape torus.Shape) error {
	_, err := fs.canonical(nil, shape)
	return err
}

// canonical validates fs against shape and appends its events to dst in
// canonical order (faultLess).
func (fs *FaultSchedule) canonical(dst []FaultEvent, shape torus.Shape) ([]FaultEvent, error) {
	if fs == nil {
		return dst, nil
	}
	for _, f := range fs.Events {
		if f.T < 0 {
			return nil, fmt.Errorf("network: fault at t=%d: time must be >= 0", f.T)
		}
		if f.Node < 0 || int(f.Node) >= shape.P() {
			return nil, fmt.Errorf("network: fault names node %d, machine has %d", f.Node, shape.P())
		}
		if f.Dir < 0 || f.Dir >= numDirs {
			return nil, fmt.Errorf("network: fault names direction %d (want 0..%d)", f.Dir, numDirs-1)
		}
		if _, ok := shape.Neighbor(shape.Coords(int(f.Node)), dimOfDir(f.Dir), signOfDir(f.Dir)); !ok {
			return nil, fmt.Errorf("network: fault names link (%d, %s), which does not exist (mesh edge)",
				f.Node, DirName(f.Dir))
		}
		switch f.Action {
		case FaultDown, FaultUp, FaultKill:
		case FaultDegrade:
			if f.Factor < 1 || f.Factor > MaxDegradeFactor {
				return nil, fmt.Errorf("network: fault degrades link (%d, %s) by factor %d (want 1..%d)",
					f.Node, DirName(f.Dir), f.Factor, MaxDegradeFactor)
			}
		default:
			return nil, fmt.Errorf("network: unknown fault action %d", f.Action)
		}
	}
	sched := append(dst, fs.Events...)
	sort.SliceStable(sched, func(i, j int) bool { return faultLess(sched[i], sched[j]) })
	killedAt := make(map[int]int64) // link -> time of its first kill
	for _, f := range sched {
		l := linkIdx(f.Node, f.Dir)
		if t, ok := killedAt[l]; ok && f.Action == FaultUp {
			return nil, fmt.Errorf("network: fault revives link (%d, %s) at t=%d after a kill at t=%d",
				f.Node, DirName(f.Dir), f.T, t)
		} else if !ok && f.Action == FaultKill {
			killedAt[l] = f.T
		}
	}
	return sched, nil
}

// installFaults makes fs, in canonical order, the schedule of the run about
// to start; an invalid one leaves the network healthy. The first schedule
// allocates the fault-state SoA in its healthy state, which every Reset
// restores; a healthy network never allocates or touches it.
func (nw *Network) installFaults(fs *FaultSchedule) error {
	sched, err := fs.canonical(nw.fsched[:0], nw.Shape)
	nw.fsched = sched
	if err != nil || len(sched) == 0 || nw.deadMask != nil {
		return err
	}
	nw.deadMask = make([]uint8, nw.P)
	nw.killMask = make([]uint8, nw.P)
	nw.stretch = make([]int32, nw.P*numDirs)
	nw.downSince = make([]int64, nw.P*numDirs)
	nw.resetFaultState()
	return nil
}

// resetFaultState returns the fault SoA to the healthy initial state (all
// links up, unit stretch). Called from Reset when the arrays exist.
func (nw *Network) resetFaultState() {
	if nw.deadMask == nil {
		return
	}
	for n := range nw.deadMask {
		nw.deadMask[n] = 0
		nw.killMask[n] = 0
	}
	for l := range nw.stretch {
		nw.stretch[l] = 1
		nw.downSince[l] = -1
	}
}

// armFaults binds the engine to the network's fault state and schedules this
// engine's share of the fault transitions: events at T <= 0 apply as initial
// state (before the first injection scan), later ones become evFault events
// in the ordinary queue. Events beyond maxTime never fire (the run cannot
// reach them) and are skipped so their pop cannot trip the max-time abort.
// Called by every engine at the top of a run.
func (e *engine) armFaults(maxTime int64) {
	fs := e.nw.fsched
	e.faulty = len(fs) > 0
	if !e.faulty {
		return
	}
	e.deadMask = e.nw.deadMask
	e.killMask = e.nw.killMask
	e.stretch = e.nw.stretch
	e.downSince = e.nw.downSince
	for i := range fs {
		f := &fs[i]
		if f.Node < e.lo || f.Node >= e.hi {
			continue
		}
		if f.T <= 0 {
			e.applyFault(f.Node, int32(i))
			continue
		}
		if f.T <= maxTime {
			e.evq.push(mkEvent(f.T, f.Node, int32(i), evFault))
		}
	}
}

// applyFault executes one fault transition at the owning node. Every mutation
// is node-local (dead/kill masks, per-link stretch and outage bookkeeping,
// queued-packet reroutes), so faults apply at the same place in the total
// event order at any shard count.
func (e *engine) applyFault(node int32, idx int32) {
	f := &e.nw.fsched[idx]
	d := f.Dir
	lnk := linkIdx(node, d)
	bit := uint8(1) << d
	switch f.Action {
	case FaultDown, FaultKill:
		if f.Action == FaultKill {
			e.killMask[node] |= bit
		}
		if e.deadMask[node]&bit != 0 {
			return // already down; kill only hardens the outage
		}
		e.deadMask[node] |= bit
		e.downSince[lnk] = e.now
		e.noteFault(node, d, f.Action, 0)
		// Queued packets whose every minimal direction just died flip to the
		// long way around the ring; a pass then lets the flipped ones move.
		if e.rerouteNode(node) {
			e.service(node, maskAll)
		}
	case FaultUp:
		if e.deadMask[node]&bit == 0 || e.killMask[node]&bit != 0 {
			return // not down, or killed (validation rejects scheduled revivals)
		}
		e.deadMask[node] &^= bit
		e.stats.DeadLinkTicks += e.now - e.downSince[lnk]
		e.downSince[lnk] = -1
		e.noteFault(node, d, FaultUp, 0)
		e.service(node, bit)
	case FaultDegrade:
		e.stretch[lnk] = f.Factor
		e.noteFault(node, d, FaultDegrade, f.Factor)
	}
}

// noteFault reports an effective fault transition to the observer, when one
// is installed and opted into fault callbacks. Faults are rare (a handful per
// run), so the per-call type assertion costs nothing measurable.
func (e *engine) noteFault(node int32, dir int, action FaultAction, factor int32) {
	if e.obs == nil {
		return
	}
	if fsk, ok := e.obs.(FaultSink); ok {
		fsk.OnFault(e.now, node, dir, action, factor)
	}
}

// aliveMask returns the output directions of node that exist and are up.
func (e *engine) aliveMask(node int32) uint8 {
	var m uint8
	base := linkIdx(node, 0)
	for d := 0; d < numDirs; d++ {
		if e.nbrs[base+d] >= 0 {
			m |= 1 << d
		}
	}
	return m &^ e.deadMask[node]
}

// flipDeadDims redirects a hop vector whose every minimal direction is dead:
// each unfinished dimension whose desired direction is down flips to the
// long way around its ring (k-h hops the other way) when that ring wraps and
// the opposite direction is alive. Deterministic packets only consider their
// first unfinished dimension (dimension order). Returns whether any
// dimension flipped; mesh dimensions cannot flip (no other way around).
func (e *engine) flipDeadDims(hops *[3]int8, det bool, alive uint8) bool {
	flipped := false
	for d := torus.Dim(0); d < torus.NumDims; d++ {
		h := hops[d]
		if h == 0 {
			continue
		}
		o := dirOf(d, int(h))
		if alive&(1<<o) == 0 && e.nw.Shape.Wrap[d] && alive&(1<<(o^1)) != 0 {
			k := e.nw.Shape.Size[d]
			if h > 0 {
				hops[d] = int8(int(h) - k)
			} else {
				hops[d] = int8(int(h) + k)
			}
			flipped = true
		}
		if det {
			break
		}
	}
	return flipped
}

// reroutePkt flips one queued packet stranded by a down link (want nonzero
// but fully dead). The ring slot header and the pool packet both update -
// the header is a settled copy of the pool fields (queue.go) and must stay
// one. The escape clock restarts: the packet's desire changed, so its
// blocked-since time no longer describes the new route.
func (e *engine) reroutePkt(node int32, q *pktQueue, i int32, alive uint8) bool {
	rf := q.at(i)
	if rf.want == 0 || rf.want&alive != 0 {
		return false
	}
	hops := rf.hops
	if !e.flipDeadDims(&hops, rf.det, alive) {
		return false
	}
	want := wantMask(hops, rf.det)
	rf.hops = hops
	rf.want = want
	rf.blocked = 0
	p := &e.pkts[q.idAt(i)]
	p.hops = hops
	p.want = want
	q.wantOR |= want // superset semantics: old bits may go stale-high (safe)
	q.quietClock = 0 // the window's wants and escape clocks changed
	e.stats.Reroutes++
	return true
}

// rerouteNode walks every occupied queue of node after a link went down,
// flipping stranded packets. The walk order (occupancy bit order: input VCs
// by direction then VC, then injection FIFOs, each front to back) is fixed,
// so the reroute sequence is identical at any shard count.
func (e *engine) rerouteNode(node int32) bool {
	r := &e.routers[node]
	alive := e.aliveMask(node)
	changed := false
	for occ := e.occ[node]; occ != 0; occ &= occ - 1 {
		q := r.queue(bits.TrailingZeros32(occ))
		for i := int32(0); i < q.count; i++ {
			if e.reroutePkt(node, q, i, alive) {
				changed = true
			}
		}
	}
	return changed
}

// rerouteFresh is the arrival/injection-time stranding check: a packet whose
// precomputed want has no live direction at node flips before it is queued.
// Runs only on faulted networks, on the pool packet, before the queue slot
// header is built.
func (e *engine) rerouteFresh(node int32, p *packet) {
	if p.want == 0 {
		return
	}
	alive := e.aliveMask(node)
	if p.want&alive != 0 {
		return
	}
	if !e.flipDeadDims(&p.hops, p.det, alive) {
		return
	}
	p.want = wantMask(p.hops, p.det)
	e.stats.Reroutes++
}

// closeFaultStats accrues the outage tails of links still down when the run
// finished: an interval [down, FinishTime) that never saw its Up (or was
// killed) counts toward DeadLinkTicks here. A schedule whose Down lands
// after the collective already completed contributes nothing (the clamp).
// Runs after per-shard statistics merge, so it reads the global finish time.
func (nw *Network) closeFaultStats() {
	if len(nw.fsched) == 0 {
		return
	}
	fin := nw.stats.FinishTime
	for _, ds := range nw.downSince {
		if ds >= 0 && fin > ds {
			nw.stats.DeadLinkTicks += fin - ds
		}
	}
}
