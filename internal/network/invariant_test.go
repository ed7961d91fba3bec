package network

import (
	"errors"
	"strings"
	"testing"

	"alltoall/internal/check"
	"alltoall/internal/torus"
)

// checkedNet builds an all-to-all workload network for checkedRun.
func checkedNet(t *testing.T, shape torus.Shape) (*Network, *shardCountHandler) {
	t.Helper()
	p := shape.P()
	h := newShardCountHandler(p)
	src := make([]Source, p)
	for i := 0; i < p; i++ {
		specs := make([]PacketSpec, 0, p-1)
		for d := 0; d < p; d++ {
			if d != i {
				specs = append(specs, PacketSpec{Dst: int32(d), Size: 256, Payload: 256, Aux: -1})
			}
		}
		src[i] = &listSource{specs: specs}
	}
	return buildNet(t, shape, DefaultParams(), src, h), h
}

// checkedRun runs nw on shards engines with the runtime invariant checker on.
func checkedRun(nw *Network, shards int) (int64, error) {
	fin, _, err := nw.RunSharded(RunSpec{MaxTime: 1 << 40, Shards: shards, Check: true})
	return fin, err
}

func TestCheckedRunClean(t *testing.T) {
	shapes := []torus.Shape{
		torus.New(4, 4, 2),
		torus.NewMesh(4, 2, 2, false, false, false),
	}
	for _, shape := range shapes {
		for _, shards := range []int{1, 4} {
			nw, h := checkedNet(t, shape)
			fin, err := checkedRun(nw, shards)
			if err != nil {
				t.Fatalf("%v shards=%d: checked run failed: %v", shape, shards, err)
			}
			if fin <= 0 {
				t.Fatalf("%v shards=%d: finish time %d", shape, shards, fin)
			}
			for n := 0; n < shape.P(); n++ {
				if h.perNode[n] != int64(shape.P()-1) {
					t.Fatalf("%v shards=%d node %d got %d deliveries", shape, shards, n, h.perNode[n])
				}
			}
		}
	}
}

// seedViolation asserts a run over a deliberately corrupted network fails
// with the named invariant and a node/time-stamped diagnostic.
func seedViolation(t *testing.T, shards int, inv check.Invariant, corrupt func(*Network)) {
	t.Helper()
	nw, _ := checkedNet(t, torus.New(4, 4, 2))
	corrupt(nw)
	_, err := checkedRun(nw, shards)
	if err == nil {
		t.Fatalf("corrupted run (shards=%d) succeeded; want %s violation", shards, inv)
	}
	var v *check.Violation
	if !errors.As(err, &v) {
		t.Fatalf("error is %T, want *check.Violation: %v", err, err)
	}
	if v.Invariant != inv {
		t.Fatalf("violated %s, want %s: %v", v.Invariant, inv, err)
	}
	msg := err.Error()
	if !strings.Contains(msg, string(inv)) || !strings.Contains(msg, "node ") || !strings.Contains(msg, "t=") {
		t.Fatalf("diagnostic lacks invariant/node/time stamp: %q", msg)
	}
}

// escapeDir returns a direction on node 0 with a live neighbour.
func escapeDir(t *testing.T, nw *Network) int {
	t.Helper()
	for d := 0; d < numDirs; d++ {
		if nw.nbrs[linkIdx(0, d)] >= 0 {
			return d
		}
	}
	t.Fatal("node 0 has no neighbours")
	return -1
}

func TestSeededBubbleSlotUnderflow(t *testing.T) {
	for _, shards := range []int{1, 4} {
		seedViolation(t, shards, check.BubbleSlots, func(nw *Network) {
			d := escapeDir(t, nw)
			nw.tok[tokIdx(0, d, VCBubble)] = -MaxPacketBytes
		})
	}
}

func TestSeededBubbleSlotFragmentation(t *testing.T) {
	seedViolation(t, 1, check.BubbleSlots, func(nw *Network) {
		d := escapeDir(t, nw)
		nw.tok[tokIdx(0, d, VCBubble)] = nw.Par.VCBytes - PacketGranule
	})
}

func TestSeededCounterfeitCredit(t *testing.T) {
	seedViolation(t, 1, check.CreditConservation, func(nw *Network) {
		d := escapeDir(t, nw)
		nw.tok[tokIdx(0, d, VCDyn0)] = nw.Par.VCBytes + PacketGranule
	})
}

func TestSeededViolationStampsNodeAndTime(t *testing.T) {
	nw, _ := checkedNet(t, torus.New(4, 4, 2))
	d := escapeDir(t, nw)
	nw.tok[tokIdx(0, d, VCBubble)] = -1
	_, err := checkedRun(nw, 1)
	var v *check.Violation
	if !errors.As(err, &v) {
		t.Fatalf("want *check.Violation, got %v", err)
	}
	if v.Node != 0 {
		t.Errorf("violation stamped node %d, want 0", v.Node)
	}
	if v.Time < 0 {
		t.Errorf("violation stamped t=%d, want >= 0", v.Time)
	}
}

func TestCheckNodeOccupancyMask(t *testing.T) {
	// occMask drift cannot be seeded pre-run without confusing arbitration
	// before the checker sees it, so audit the checker directly: complete a
	// clean run, then flip a bit over a provably empty queue.
	nw, _ := checkedNet(t, torus.New(4, 4, 2))
	if _, err := checkedRun(nw, 1); err != nil {
		t.Fatal(err)
	}
	e := &nw.engines[0]
	if v := e.checkNode(0); v != nil {
		t.Fatalf("clean post-run state flagged: %v", v)
	}
	nw.occ[0] |= 1
	v := e.checkNode(0)
	if v == nil || v.Invariant != check.OccupancyMask {
		t.Fatalf("stale occMask bit not caught: %v", v)
	}
}

func TestCheckNodeTokenMask(t *testing.T) {
	// The token-mask word is kept by noteTokens at grant and credit; audit
	// the checker's recompute directly, as for occMask: a clean run leaves
	// every word current, then one flipped bit must be caught.
	nw, _ := checkedNet(t, torus.New(4, 4, 2))
	if _, err := checkedRun(nw, 1); err != nil {
		t.Fatal(err)
	}
	e := &nw.engines[0]
	for n := int32(0); n < int32(nw.P); n++ {
		if v := e.checkNode(n); v != nil {
			t.Fatalf("clean post-run state flagged: %v", v)
		}
	}
	d := escapeDir(t, nw)
	nw.tokMask[0] ^= 1 << (8 + d)
	v := e.checkNode(0)
	if v == nil || v.Invariant != check.OccupancyMask || !strings.Contains(v.Error(), "token-mask") {
		t.Fatalf("stale token-mask bit not caught: %v", v)
	}
}

func TestCheckNodeParkedLink(t *testing.T) {
	// freeOutputs reads no neighbour table, so a mesh edge must stay parked
	// busy forever; one that reads free is caught.
	nw, _ := checkedNet(t, torus.NewMesh(4, 2, 2, false, false, false))
	if _, err := checkedRun(nw, 1); err != nil {
		t.Fatal(err)
	}
	e := &nw.engines[0]
	if v := e.checkNode(0); v != nil {
		t.Fatalf("clean post-run state flagged: %v", v)
	}
	absent := linkIdx(0, 1) // node 0 sits at the -x edge
	if nw.nbrs[absent] >= 0 {
		t.Fatal("node 0 has a -x neighbour on a mesh")
	}
	nw.outBusy[absent] = 0
	v := e.checkNode(0)
	if v == nil || v.Invariant != check.LinkLiveness {
		t.Fatalf("absent link reading free not caught: %v", v)
	}
}

func TestCheckQuiescenceStrandedCredit(t *testing.T) {
	nw, _ := checkedNet(t, torus.New(4, 4, 2))
	if _, err := checkedRun(nw, 1); err != nil {
		t.Fatal(err)
	}
	if err := nw.checkQuiescence(); err != nil {
		t.Fatalf("clean run not quiescent: %v", err)
	}
	d := escapeDir(t, nw)
	nw.tok[tokIdx(0, d, VCDyn1)] -= PacketGranule
	err := nw.checkQuiescence()
	var v *check.Violation
	if !errors.As(err, &v) || v.Invariant != check.Quiescence {
		t.Fatalf("stranded credit not caught: %v", err)
	}
	if !strings.Contains(err.Error(), "stranded") {
		t.Errorf("diagnostic %q does not name stranded credits", err)
	}
}

func TestCheckQuiescenceLedger(t *testing.T) {
	nw, _ := checkedNet(t, torus.New(4, 4, 2))
	if _, err := checkedRun(nw, 1); err != nil {
		t.Fatal(err)
	}
	nw.stats.TotalDelivered--
	err := nw.checkQuiescence()
	var v *check.Violation
	if !errors.As(err, &v) || v.Invariant != check.Quiescence {
		t.Fatalf("broken delivery ledger not caught: %v", err)
	}
	nw.stats.TotalDelivered++
}

func TestCheckedSerialShardedIdentical(t *testing.T) {
	shape := torus.New(4, 4, 2)
	nwA, hA := checkedNet(t, shape)
	finA, err := checkedRun(nwA, 1)
	if err != nil {
		t.Fatal(err)
	}
	nwB, hB := checkedNet(t, shape)
	finB, err := checkedRun(nwB, 4)
	if err != nil {
		t.Fatal(err)
	}
	if finA != finB {
		t.Fatalf("serial finish %d != sharded finish %d with checks on", finA, finB)
	}
	for n := range hA.perNode {
		if hA.perNode[n] != hB.perNode[n] {
			t.Fatalf("node %d deliveries differ: serial %d sharded %d", n, hA.perNode[n], hB.perNode[n])
		}
	}
}
