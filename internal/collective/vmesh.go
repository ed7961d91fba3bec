package collective

import (
	"fmt"
	"slices"

	"alltoall/internal/torus"
)

// The 2D virtual-mesh message-combining strategy (Section 4.2).
//
// A virtual Pvx x Pvy mesh is mapped onto the physical partition. In phase
// 1 every node combines, for each virtual-mesh column j, the blocks destined
// to all Pvy nodes of that column into one message of Pvy*(m+proto) bytes
// and sends it to its row neighbour in column j. Once its own Pvx-1 row
// messages are in, a node sorts the received blocks by destination and, in
// phase 2, sends each column neighbour one message of Pvx*(m+proto) bytes.
// Every byte crosses the network twice, but per-destination software headers
// are amortized over combined messages, which wins for very short messages.

// BalancedFactor returns the factorization p = a*b with a >= b minimizing
// a-b (the paper: "keep the number of rows and columns about the same").
func BalancedFactor(p int) (a, b int) {
	best := 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			best = d
		}
	}
	return p / best, best
}

// vmeshMap maps virtual-mesh ranks onto physical ranks by enumerating the
// torus dimensions in a configurable order (order[0] fastest). The identity
// order {X,Y,Z} makes consecutive virtual ranks sweep X-lines first, so a
// 32-wide row on an 8x8x8 torus is half an XY plane, matching the paper's
// 512-node experiment.
type vmeshMap struct {
	physOf []int32 // physical rank by virtual rank
	virtOf []int32 // virtual rank by physical rank
}

func newVMeshMap(s torus.Shape, order [3]torus.Dim) vmeshMap {
	p := s.P()
	m := vmeshMap{physOf: make([]int32, p), virtOf: make([]int32, p)}
	for phys := 0; phys < p; phys++ {
		c := s.Coords(phys)
		vr := c[order[0]] + s.Size[order[0]]*(c[order[1]]+s.Size[order[1]]*c[order[2]])
		m.physOf[vr] = int32(phys)
		m.virtOf[phys] = int32(vr)
	}
	return m
}

// lists returns every node's destinations for one combining phase: the
// other members of its virtual line (n nodes, stride virtual ranks apart) in
// a shuffle the line shares, rotated to start at the node's own position.
func (m vmeshMap) lists(n, stride int, perm torus.Perm) [][]int32 {
	dests := make([][]int32, len(m.physOf))
	for phys := range dests {
		vr := int(m.virtOf[phys])
		own := vr / stride % n
		dests[phys] = make([]int32, 0, n-1)
		for i := 0; i < n; i++ {
			if j := perm.At((i + own) % n); j != own {
				dests[phys] = append(dests[phys], m.physOf[vr+(j-own)*stride])
			}
		}
	}
	return dests
}

// vmeshFactors returns the virtual-mesh factorization Pvx x Pvy the request
// selects - the forced VMeshCols x VMeshRows, or the balanced one when either
// is 0 - and checks that it covers the partition. Validate and runVMesh share
// it.
func (r Request) vmeshFactors() (pvx, pvy int, err error) {
	p := r.Shape.P()
	pvx, pvy = r.VMeshCols, r.VMeshRows
	if pvx == 0 || pvy == 0 {
		pvx, pvy = BalancedFactor(p)
	}
	if pvx*pvy != p {
		return 0, 0, fmt.Errorf("collective: vmesh %dx%d does not cover %d nodes", pvx, pvy, p)
	}
	return pvx, pvy, nil
}

// runVMesh runs the 2D virtual-mesh combining strategy as one list phase on
// the direct route: each node sends its row leg, then, once its own row's
// blocks are all in, its column leg (columnGate).
func runVMesh(opts *Options) (Result, error) {
	p := opts.Shape.P()
	pvx, pvy, err := opts.vmeshFactors()
	if err != nil {
		return Result{}, err
	}
	order, err := parseMapOrder(opts.VMeshMapOrder)
	if err != nil {
		return Result{}, err
	}
	vm := newVMeshMap(opts.Shape, order)
	calib := opts.Calib
	// The gather/sort copy cost of a combined message, charged like its
	// startup with the message's first packet.
	gammaOf := func(bytes int64) int64 { return bytes * calib.GammaMilliPerByte / 1000 }

	// Row leg: virtual node (r, c) sends to (r, j) for j != c a message
	// combining the blocks for column j.
	row := NewMsg(pvy*(opts.MsgBytes+calib.ProtoBytes), calib.HeaderBytes)
	rows := vm.lists(pvx, 1, torus.NewPerm(pvx, opts.Seed^0x5EED1))
	// Column leg: virtual node (r, c) sends to (r', c) for r' != r a message
	// with the blocks (from all Pvx row members) for that destination.
	col := NewMsg(pvx*(opts.MsgBytes+calib.ProtoBytes), calib.HeaderBytes)
	gate := &columnGate{dests: vm.lists(pvy, pvx, torus.NewPerm(pvy, opts.Seed^0x5EED2)), msg: col,
		startup: calib.AlphaMsg + gammaOf(col.Wire), want: int64(pvx-1) * int64(row.Payload),
		got: make([]int64, p), opened: make([]int64, p)}
	nw, t, err := opts.runLists("VMesh", directRoute(opts.Shape, false), rows, row, calib.AlphaMsg+gammaOf(row.Wire),
		opts.pacer(false), gate, func(int) int64 { return gate.want + int64(pvy-1)*int64(col.Payload) })
	if err != nil {
		return Result{}, err
	}

	r := opts.result(t, nw.Stats())
	r.VMeshCols, r.VMeshRows = pvx, pvy
	r.PhaseTimes = []int64{slices.Max(gate.opened), t}
	// Every pair's m application bytes are delivered (on the row leg for row
	// mates, via the column leg otherwise).
	r.PayloadBytes = int64(p) * int64(p-1) * int64(opts.MsgBytes)
	return r, nil
}
