// Command aasim runs a single all-to-all configuration on the simulated
// torus and prints a detailed result.
//
// Usage:
//
//	aasim -shape 8x32x16 -strategy TPS -msg 1024
//	aasim -shape 8x8x4M -strategy AR -msg 240     # M marks a mesh dimension
//	aasim -shape 8x8x8 -msg 1920 -shards 1        # force one engine (default: the engine decides)
//	aasim -shape 16x8x8 -msg 240 -observe         # bottleneck attribution
//	aasim -shape 16x8x8 -msg 240 -observe -trace-out run.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"alltoall"
	"alltoall/internal/network"
	"alltoall/internal/report"
)

// startCPUProfile begins CPU profiling to path ("" = disabled) and returns
// the stop function.
func startCPUProfile(path string) func() {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aasim: -cpuprofile: %v\n", err)
		os.Exit(2)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "aasim: -cpuprofile: %v\n", err)
		os.Exit(2)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

// writeMemProfile records a heap profile to path ("" = disabled).
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aasim: -memprofile: %v\n", err)
		os.Exit(2)
	}
	defer f.Close()
	runtime.GC() // up-to-date allocation statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "aasim: -memprofile: %v\n", err)
		os.Exit(2)
	}
}

// renderResult writes the deterministic result block: everything aasim
// reports except the wall-clock "simulated in" line, which depends on host
// speed. The golden-file tests pin this rendering byte for byte, so a
// deterministic run at any shard count must produce identical output here.
func renderResult(w io.Writer, res alltoall.Result) {
	calib := alltoall.DefaultCalib()
	fmt.Fprintf(w, "strategy        %s\n", res.Strategy)
	fmt.Fprintf(w, "partition       %v (%d nodes)\n", res.Shape, res.Shape.P())
	fmt.Fprintf(w, "message         %d bytes per pair\n", res.MsgBytes)
	fmt.Fprintf(w, "completion      %d units = %.3f ms\n", res.Time, res.Seconds*1e3)
	fmt.Fprintf(w, "peak (Eq 2)     %.0f units = %.3f ms\n", res.PeakTime, calib.Seconds(res.PeakTime)*1e3)
	fmt.Fprintf(w, "percent of peak %.1f%%\n", res.PercentPeak)
	fmt.Fprintf(w, "per-node rate   %.1f MB/s\n", res.PerNodeMBs)
	fmt.Fprintf(w, "packets         %d (%d wire bytes)\n", res.PacketsInjected, res.WireBytes)
	fmt.Fprintf(w, "mean latency    %.0f units = %.1f us\n", res.MeanLatencyUnits, calib.Seconds(res.MeanLatencyUnits)*1e6)
	fmt.Fprintf(w, "link util       mean %.2f max %.2f\n", res.MeanLinkUtil, res.MaxLinkUtil)
	if res.DeadLinkTicks > 0 || res.Reroutes > 0 {
		fmt.Fprintf(w, "faults          %d dead-link ticks, %d packets rerouted\n", res.DeadLinkTicks, res.Reroutes)
	}
	if res.Strategy == alltoall.TPS {
		fmt.Fprintf(w, "TPS linear dim  %v\n", res.TPSLinearDim.Dim())
	}
	if res.Strategy == alltoall.VMesh {
		fmt.Fprintf(w, "virtual mesh    %dx%d, phases %v units\n", res.VMeshCols, res.VMeshRows, res.PhaseTimes)
	}
}

// simulate runs req and returns, beside the Result, the engine's sync
// counters: how the run was scheduled, which the Result deliberately omits.
func simulate(req alltoall.Request, extra ...alltoall.Option) (alltoall.Result, network.SyncStats, error) {
	var ss network.SyncStats
	extra = append(extra, func(o *alltoall.Options) { o.SyncStats = &ss })
	res, err := alltoall.Run(context.Background(), req, extra...)
	return res, ss, err
}

// renderFooter prints the wall-time line. It names the engine that ran, read
// from the run's SyncStats, not the -shards that was asked for: at 0 the
// engine picks the count, and it clamps any request to the node count.
func renderFooter(w io.Writer, elapsed time.Duration, ss network.SyncStats, events int64) {
	engine := "serial"
	if ss.Shards > 1 {
		engine = fmt.Sprintf("%d shards", ss.Shards)
	}
	fmt.Fprintf(w, "simulated in    %s (%s engine, %d events, %.2fM events/s)\n",
		elapsed.Round(time.Millisecond), engine, events, float64(events)/1e6/elapsed.Seconds())
}

func main() {
	shapeStr := flag.String("shape", "8x8x8", "partition, e.g. 8x32x16 or 8x8x4M (M = mesh dimension)")
	strat := flag.String("strategy", "AR", "AR | DR | Throttle | MPI | TPS | VMesh | XYZ")
	msg := flag.Int("msg", 1024, "per-pair payload bytes")
	seed := flag.Uint64("seed", 1, "randomization seed")
	burst := flag.Int("burst", 0, "packets per destination visit (0 = default)")
	shards := flag.Int("shards", 0, "event engines for this run: 0 = the engine decides, 1 = one engine, n = exactly n (identical output)")
	checkInv := flag.Bool("check", false, "enable the runtime invariant checker (~1.4x slower; fails with a node/time-stamped diagnostic on violation)")
	faults := flag.String("faults", "", `link-fault schedule, semicolon-separated "t:node:dir:action" events (dir: +x -x +y -y +z -z; action: down, up, kill, or xN degrade), e.g. "0:12:+x:kill;5000:40:-y:down;9000:40:-y:up"`)
	observe := flag.Bool("observe", false, "instrument the run and print a bottleneck-attribution report")
	observeWindow := flag.Int64("observe-window", 0, "observation bucket width in time units (0 = default)")
	traceOut := flag.String("trace-out", "", "write the per-window observation trace as JSONL to this file (implies -observe)")
	dump := flag.String("dump", "", "file for a network state dump if the run stalls")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	shape, err := alltoall.ParseShape(*shapeStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aasim: %v\n", err)
		os.Exit(2)
	}
	strategy, err := alltoall.ParseStrategy(*strat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aasim: %v\n", err)
		os.Exit(2)
	}
	// aasim submits the same canonical job value that aaserve accepts over
	// HTTP; run machinery (the collector, a debug dump path) rides along as
	// options because it never changes the Result.
	req := alltoall.Request{
		Strategy:      strategy,
		Shape:         shape,
		MsgBytes:      *msg,
		Seed:          *seed,
		Burst:         *burst,
		Shards:        *shards,
		Check:         *checkInv,
		Faults:        *faults,
		Observe:       *observe || *traceOut != "",
		ObserveWindow: *observeWindow,
	}
	if err := req.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "aasim: %v\n", err)
		os.Exit(2)
	}
	var obs *alltoall.Collector
	var extra []alltoall.Option
	if req.Observe {
		obs = alltoall.NewCollector(alltoall.ObserveConfig{Window: *observeWindow})
		extra = append(extra, alltoall.WithObserver(obs))
	}
	if *dump != "" {
		extra = append(extra, alltoall.WithDebugDump(*dump))
	}
	stopCPU := startCPUProfile(*cpuprofile)
	start := time.Now()
	res, ss, err := simulate(req, extra...)
	elapsed := time.Since(start)
	stopCPU()
	writeMemProfile(*memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aasim: %v\n", err)
		os.Exit(1)
	}
	renderResult(os.Stdout, res)
	renderFooter(os.Stdout, elapsed, ss, res.Events)
	if obs != nil {
		fmt.Println()
		if err := report.WriteAttribution(os.Stdout, obs); err != nil {
			fmt.Fprintf(os.Stderr, "aasim: attribution: %v\n", err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aasim: -trace-out: %v\n", err)
			os.Exit(1)
		}
		if err := obs.WriteTrace(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "aasim: -trace-out: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "aasim: -trace-out: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace           %s\n", *traceOut)
	}
}
