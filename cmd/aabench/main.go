// Command aabench regenerates the paper's tables and figures on the
// simulated Blue Gene/L torus.
//
// Usage:
//
//	aabench -exp table1            # one experiment
//	aabench -exp all               # everything (long)
//	aabench -exp table3 -full      # true machine sizes (hours)
//	aabench -exp fig6 -csv         # CSV series instead of ASCII
//	aabench -exp table2 -j 4       # limit the worker pool to 4 cores
//
// By default partitions larger than -maxnodes (1024) are scaled down by
// halving every dimension, preserving the aspect ratio that drives the
// paper's phenomena; rows are annotated with the simulated size.
//
// Rows of an experiment are independent simulations and run concurrently on
// all cores (-j overrides; -j 1 is serial). When an experiment has fewer
// rows than workers, the engine decides how many cores each run takes: a
// large partition spreads over the cores no other run is using (-shards
// forces a count). Output is byte-identical at any worker or shard count.
// Per-run progress goes to stderr so stdout stays clean.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"alltoall/internal/experiments"
	"alltoall/internal/parallel"
	"alltoall/internal/report"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "aabench: "+format+"\n", args...)
	os.Exit(2)
}

// observedTable renders one experiment's per-run observations: where each
// run's traffic concentrated and how much head-of-line blocking it saw.
func observedTable(id string, sink *experiments.TraceSink) *report.Table {
	t := report.NewTable(fmt.Sprintf("%s observed (schema v%d)", id, experiments.ObserveSchemaVersion),
		"run", "sat", "util", "max link", "hol", "inj fifo B")
	for _, r := range sink.Runs() {
		if !strings.HasPrefix(r.Label, id+" ") {
			continue
		}
		s := r.Summary
		var u float64
		for _, v := range s.UtilByDim {
			if v > u {
				u = v
			}
		}
		t.AddRow(strings.TrimPrefix(r.Label, id+" "), s.SaturatedDim,
			fmt.Sprintf("%.1f%%", 100*u), fmt.Sprintf("%.1f%%", 100*s.MaxLinkUtil),
			s.HoLBlocked, s.MaxInjFIFOBytes)
	}
	return t
}

func main() {
	exp := flag.String("exp", "", "experiment id: table1..table4, fig1..fig7, or all")
	full := flag.Bool("full", false, "simulate true machine sizes (no scaling; very slow)")
	maxNodes := flag.Int("maxnodes", 1024, "scale partitions above this many nodes")
	seed := flag.Uint64("seed", 1, "randomization seed")
	csv := flag.Bool("csv", false, "emit CSV instead of ASCII tables")
	large := flag.Int("large", 0, "override the large-message payload bytes")
	workers := flag.Int("j", 0, "parallel workers per experiment (0 = all cores, 1 = serial)")
	shards := flag.Int("shards", 0, "event engines per run: 0 = the engine decides, 1 = one engine, n = exactly n (identical output)")
	checkInv := flag.Bool("check", false, "run every simulation with the runtime invariant checker (~1.4x slower)")
	observeRuns := flag.Bool("observe", false, "instrument every run and print a per-run observation table after each experiment")
	traceOut := flag.String("trace-out", "", "write every run's windowed observation trace as one JSONL file (implies -observe)")
	quiet := flag.Bool("quiet", false, "suppress per-run progress lines on stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: aabench -exp <id>")
		fmt.Fprintf(os.Stderr, "experiments: %v all\n", experiments.Order)
		os.Exit(2)
	}
	cfg := experiments.Config{
		MaxNodes:   *maxNodes,
		Seed:       *seed,
		LargeBytes: *large,
		Workers:    *workers,
		Shards:     *shards,
		Check:      *checkInv,
	}
	if *full {
		cfg.MaxNodes = math.MaxInt
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.Order
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	var sink *experiments.TraceSink
	if *observeRuns || *traceOut != "" {
		sink = experiments.NewTraceSink(*traceOut != "")
	}
	failed := false
	for _, id := range ids {
		runner, ok := experiments.Catalog[id]
		if !ok {
			fatalf("unknown experiment %q (have %v)", id, experiments.Order)
		}
		metrics := &experiments.Metrics{}
		cfg.Metrics = metrics
		cfg.Trace = sink
		start := time.Now()
		table, err := runner(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aabench: %v\n", err) // the error names its experiment
			failed = true
			if len(ids) == 1 {
				os.Exit(1)
			}
			continue // keep regenerating the remaining experiments
		}
		elapsed := time.Since(start)
		sec := elapsed.Seconds()
		if *csv {
			if err := table.WriteCSV(os.Stdout); err != nil {
				fatalf("%v", err)
			}
		} else {
			if err := table.Write(os.Stdout); err != nil {
				fatalf("%v", err)
			}
			ev := float64(metrics.Events())
			fmt.Printf("[%s completed in %s: %d workers, %d runs, %.1fM events, %.2fM events/s, %.1f queued events/packet]\n\n",
				id, elapsed.Round(time.Millisecond), parallel.Workers(*workers),
				metrics.Runs(), ev/1e6, ev/1e6/sec, metrics.EventsPerPacket())
		}
		if *observeRuns && !*csv {
			if err := observedTable(id, sink).Write(os.Stdout); err != nil {
				fatalf("%v", err)
			}
			fmt.Println()
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatalf("-trace-out: %v", err)
		}
		if err := sink.WriteJSONL(f); err != nil {
			f.Close()
			fatalf("-trace-out: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("-trace-out: %v", err)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatalf("-memprofile: %v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("-memprofile: %v", err)
		}
		f.Close()
	}
	if failed {
		os.Exit(1)
	}
}
