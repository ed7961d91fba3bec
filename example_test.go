package alltoall_test

import (
	"context"
	"fmt"
	"log"

	"alltoall"
)

// The quick start: a run is a Request literal, Run runs it, and req.Key() is
// its identity wherever it runs (here, from the aasim CLI, as an aaserve job).
func ExampleRun() {
	// A 4x4x4 torus; every node sends a distinct 1 KiB message to every
	// other node. (8x8x8, one Blue Gene/L midplane, is the same call and 35M events.)
	req := alltoall.Request{
		Strategy: alltoall.AR,
		Shape:    alltoall.NewTorus(4, 4, 4),
		MsgBytes: 1024,
		Seed:     1,
	}
	res, err := alltoall.Run(context.Background(), req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("all-to-all on %v: %d nodes x %d bytes to each of %d peers\n",
		res.Shape, res.Shape.P(), res.MsgBytes, res.Shape.P()-1)
	fmt.Printf("completed in %.3f ms (%.1f%% of the Equation 2 peak)\n",
		res.Seconds*1e3, res.PercentPeak)
	fmt.Printf("per-node throughput: %.0f MB/s (bisection limit %.0f MB/s)\n",
		res.PerNodeMBs, res.PerNodeMBs*100/res.PercentPeak)
	fmt.Println(req.Key())
	// Output:
	// all-to-all on 4x4x4: 64 nodes x 1024 bytes to each of 63 peers
	// completed in 0.288 ms (73.6% of the Equation 2 peak)
	// per-node throughput: 224 MB/s (bisection limit 304 MB/s)
	// aa5|{"strategy":"AR","shape":"4x4x4","msg_bytes":1024,"seed":1}
}

// Many-to-many patterns: the paper's analysis applied beyond all-to-all. A
// pattern run is the same Request; its Strategy is the routing (DR
// deterministic, AR or none adaptive).
func ExampleRunPattern() {
	req := alltoall.Request{Shape: alltoall.NewTorus(8, 4, 4), MsgBytes: 512}
	fmt.Printf("%-14s %8s %10s %9s %10s\n", "pattern", "messages", "time (us)", "max util", "mean util")
	for _, p := range []alltoall.Pattern{
		alltoall.DimShift{Dim: alltoall.X, Hops: 1},
		alltoall.Shift{Offset: 37},
		alltoall.RandomPermutation{Seed: 7},
		alltoall.RandomSubset{K: 8, Seed: 7},
		alltoall.HotSpot{Root: 0},
	} {
		res, err := alltoall.RunPattern(context.Background(), p, req)
		if err != nil {
			log.Fatalf("%s: %v", p.Name(), err)
		}
		fmt.Printf("%-14s %8d %10.1f %9.2f %10.2f\n", p.Name(),
			res.PayloadBytes/int64(res.MsgBytes), res.Seconds*1e6, res.MaxLinkUtil, res.MeanLinkUtil)
	}
	// The nearest-neighbour shift streams at link speed; random many-to-many
	// spreads load like the all-to-all; the hot spot serializes on the
	// root's reception links no matter how good the routing is.

	// Output:
	// pattern        messages  time (us)  max util  mean util
	// dimshift-X+1        128        4.3      0.86       0.14
	// shift+37            128       13.5      0.95       0.22
	// randperm            128       11.1      0.86       0.21
	// many-to-8          1024       54.1      0.98       0.37
	// hotspot@0           127      154.9      1.00       0.02
}

// The analytic model alone (Equations 2-4 and the Two Phase Schedule's
// dimension rule), no simulation: what the paper predicts for 1 KiB messages
// on an asymmetric partition.
func ExamplePredictDirect() {
	shape, m := alltoall.NewTorus(8, 32, 16), 1024
	c := alltoall.DefaultCalib()
	peak := alltoall.PeakTime(shape, m)
	direct := alltoall.PredictDirect(c, shape, m)
	cols, rows := alltoall.BalancedVMeshFactor(shape.P())
	vmesh := alltoall.PredictVMesh(c, shape, cols, rows, m)
	fmt.Printf("partition          %v (%d nodes), %d bytes per pair\n", shape, shape.P(), m)
	fmt.Printf("peak (Eq 2)        %.0f units = %.3f ms\n", peak, c.Seconds(peak)*1e3)
	fmt.Printf("direct (Eq 3)      %.0f units = %.3f ms (%.1f%% of peak)\n", direct, c.Seconds(direct)*1e3, 100*peak/direct)
	fmt.Printf("vmesh %dx%d (Eq 4) %.0f units = %.3f ms\n", cols, rows, vmesh, c.Seconds(vmesh)*1e3)
	fmt.Printf("TPS linear dim     %v\n", alltoall.SelectTPSLinearDim(shape))
	// Output:
	// partition          8x32x16 (4096 nodes), 1024 bytes per pair
	// peak (Eq 2)        16777216 units = 108.716 ms
	// direct (Eq 3)      17969152 units = 116.440 ms (93.4% of peak)
	// vmesh 64x64 (Eq 4) 35937774 units = 232.877 ms
	// TPS linear dim     Y
}
