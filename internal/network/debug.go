package network

import (
	"fmt"
	"io"
)

// DumpState writes a human-readable snapshot of every non-empty queue, for
// diagnosing stalls. Intended for tests and debugging tools.
func (nw *Network) DumpState(w io.Writer) {
	var inFlight int64
	activeSrc := 0
	for i := range nw.engines {
		inFlight += nw.engines[i].inFlight
		activeSrc += nw.engines[i].activeSrc
	}
	fmt.Fprintf(w, "t=%d inFlight=%d activeSrc=%d\n", nw.Now(), inFlight, activeSrc)
	owner := 0 // engine whose slab holds node n; slabs ascend with rank
	for n := range nw.routers {
		for int32(n) >= nw.engines[owner].hi {
			owner++
		}
		pkts := nw.engines[owner].pkts
		r := &nw.routers[n]
		hdr := false
		head := func() {
			if !hdr {
				fmt.Fprintf(w, "node %d %v cpuBusy=%v pendValid=%v pendingFw=%d srcDone=%v\n",
					n, nw.coords[n], r.cpuBusy, r.pendValid, len(r.pendingFw), r.srcDone)
				fmt.Fprintf(w, "  tok:")
				for d := 0; d < numDirs; d++ {
					if nw.nbrs[linkIdx(int32(n), d)] >= 0 {
						fmt.Fprintf(w, " d%d=[%d %d %d]", d,
							nw.tok[tokIdx(int32(n), d, 0)], nw.tok[tokIdx(int32(n), d, 1)], nw.tok[tokIdx(int32(n), d, 2)])
					}
				}
				fmt.Fprintf(w, "\n  outBusy:")
				for d := 0; d < numDirs; d++ {
					if busy := nw.outBusy[linkIdx(int32(n), d)]; busy == maxInt64 {
						fmt.Fprint(w, " -") // no link: parked busy forever
					} else {
						fmt.Fprintf(w, " %d", busy)
					}
				}
				fmt.Fprintln(w)
				hdr = true
			}
		}
		dumpQ := func(name string, q *pktQueue) {
			if q.empty() {
				return
			}
			head()
			pid := q.peek()
			p := &pkts[pid]
			fmt.Fprintf(w, "  %s: %d pkts %dB, head {dst=%d src=%d size=%d hops=%v vc=%d inDir=%d det=%v kind=%d}\n",
				name, q.count, q.bytes, p.dst, p.src, p.size, p.hops, p.vc, p.inDir, p.det, p.kind)
		}
		for d := 0; d < numDirs; d++ {
			for vc := 0; vc < NumVC; vc++ {
				dumpQ(fmt.Sprintf("in[%d][%d]", d, vc), &r.in[d][vc])
			}
		}
		for i := range r.inj {
			dumpQ(fmt.Sprintf("inj[%d]", i), &r.inj[i])
		}
		dumpQ("recv", &r.recv)
	}
}
