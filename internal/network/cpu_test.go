package network

import "testing"

// opLog records, per node, the order in which the CPU started reception
// ('R', logged by the Handler) and injection ('I', logged by the Source)
// operations. Each node writes only its own entry.
type opLog [][]byte

// loggedSource injects count packets to dst, none before start; a ready
// spec is logged as an injection the moment it is handed out, which is when
// the CPU starts it as long as the injection FIFO has room.
type loggedSource struct {
	log        opLog
	node       int32
	dst        int32
	count      int
	start      int64
	packetSize int32
}

func (s *loggedSource) Next(now int64) (PacketSpec, SrcStatus, int64) {
	if s.count == 0 {
		return PacketSpec{}, SrcDone, 0
	}
	if now < s.start {
		return PacketSpec{}, SrcWait, s.start
	}
	s.count--
	s.log[s.node] = append(s.log[s.node], 'I')
	return PacketSpec{Dst: s.dst, Size: s.packetSize}, SrcReady, 0
}

// stallingHandler logs every reception and charges the first one at each
// node stall extra CPU units, so the packets behind it pile up in the
// reception FIFO while injection work is waiting too.
type stallingHandler struct {
	log     opLog
	stalled []bool
	stall   int64
}

func (h *stallingHandler) OnDeliver(d Delivered, fw []PacketSpec) ([]PacketSpec, int64, bool) {
	h.log[d.Node] = append(h.log[d.Node], 'R')
	if h.stalled[d.Node] {
		return fw, 0, true
	}
	h.stalled[d.Node] = true
	return fw, h.stall, true
}

// TestCPUAlternatesUnlessReceptionHalfFull pins DESIGN §2 mechanism 8
// (recvFirst): a node with both reception and injection work alternates
// receive and inject operations, and goes receive-first only while its
// reception FIFO is at least half full. Node 0 of a two-node line sends n
// packets to node 1; node 1's first reception stalls its CPU until every one
// of them has arrived, and its own five injections become ready during the
// stall. When the stall ends, the CPU has done one operation, so strict
// alternation would pick injection next.
func TestCPUAlternatesUnlessReceptionHalfFull(t *testing.T) {
	for _, tc := range []struct {
		name      string
		recvBytes int32
		n         int
		want      string
	}{
		// 5 packets (1280 B) wait behind the stall, under half of 8 KiB:
		// plain alternation from the injection side.
		{"below half", 8192, 6, "RIRIRIRIRIR"},
		// A 1 KiB FIFO holds 4 of the 7 waiting packets, the other 3 back
		// up into the input VC and refill it as it drains. Receptions run
		// back to back while the FIFO holds >= 512 B at the decision (the
		// 7th reception sees 512); at 256 B alternation resumes, on the
		// injection side because 7 operations flipped the turn.
		{"half full", 1024, 8, "RRRRRRRIRIIII"},
		// One more packet moves the 512 B decision to the injection side's
		// turn (8th reception, 7 operations done): exactly half full still
		// receives first.
		{"exactly half", 1024, 9, "RRRRRRRRRIIIII"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			par := DefaultParams()
			par.RecvFIFOBytes = tc.recvBytes
			par.InjFIFOBytes = 4096 // injections never wait for FIFO room
			log := make(opLog, 2)
			src := []Source{
				&loggedSource{log: log, node: 0, dst: 1, count: tc.n, packetSize: 256},
				&loggedSource{log: log, node: 1, dst: 0, count: 5, start: 400, packetSize: 256},
			}
			nw := buildNet(t, line2(), par, src, &stallingHandler{log: log, stalled: make([]bool, 2), stall: 10000})
			if _, err := nw.Run(1 << 30); err != nil {
				t.Fatal(err)
			}
			if got := string(log[1]); got != tc.want {
				t.Errorf("node 1 ran %s, want %s", got, tc.want)
			}
		})
	}
}
