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
//	aabench -exp all -bench-json BENCH.json   # machine-readable perf record
//
// By default partitions larger than -maxnodes (1024) are scaled down by
// halving every dimension, preserving the aspect ratio that drives the
// paper's phenomena; rows are annotated with the simulated size.
//
// Rows of an experiment are independent simulations and run concurrently on
// all cores (-j overrides; -j 1 is serial). When an experiment has fewer
// rows than cores, single runs are additionally parallelized on the sharded
// event engine (-shards overrides the automatic choice). Output is
// byte-identical at any worker or shard count. Per-row progress goes to
// stderr so stdout stays clean.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"alltoall/internal/experiments"
	"alltoall/internal/parallel"
	"alltoall/internal/report"
)

// benchSchemaVersion identifies the -bench-json document layout; bump on
// any breaking change to field names or semantics.
//
// v2: added queued_events, packets, events_per_packet (per experiment and
// as totals): events pushed through the event queue, and that volume per
// injected packet.
//
// v3: added the sharded engine's synchronization counters, per experiment
// and as totals: sync_horizon_advances (windows), sync_blocked_waits (barrier
// crossings), sync_blocked_wait_ns (barrier waits that outlast the spin phase),
// sync_cross_shard_events and sync_cross_shard_bytes (boundary traffic). All
// zero for unsharded runs.
//
// v4: dropped coalesce and sync, the selectors of engine variants that no
// longer exist; queued_events now equals events.
const benchSchemaVersion = 4

// benchExperiment is one experiment's perf record in the -bench-json file.
type benchExperiment struct {
	Experiment      string  `json:"experiment"`
	Seconds         float64 `json:"seconds"`
	Runs            int64   `json:"runs"`
	Events          int64   `json:"events"`
	QueuedEvents    int64   `json:"queued_events"`
	Packets         int64   `json:"packets"`
	EventsPerSec    float64 `json:"events_per_sec"`
	EventsPerPacket float64 `json:"events_per_packet"`
	RunsPerSec      float64 `json:"runs_per_sec"`

	SyncAdvances int64 `json:"sync_horizon_advances"`
	SyncWaits    int64 `json:"sync_blocked_waits"`
	SyncWaitNs   int64 `json:"sync_blocked_wait_ns"`
	SyncXPkts    int64 `json:"sync_cross_shard_events"`
	SyncXBytes   int64 `json:"sync_cross_shard_bytes"`
}

// benchReport is the -bench-json document: enough context to compare
// apples to apples across commits and machines.
type benchReport struct {
	SchemaVersion   int               `json:"schema_version"`
	GoVersion       string            `json:"go_version"`
	GOMAXPROCS      int               `json:"gomaxprocs"`
	Workers         int               `json:"workers"`
	Shards          int               `json:"shards"` // 0 = automatic per run
	Experiments     []benchExperiment `json:"experiments"`
	TotalSeconds    float64           `json:"total_seconds"`
	TotalRuns       int64             `json:"total_runs"`
	TotalEvents     int64             `json:"total_events"`
	TotalQueued     int64             `json:"total_queued_events"`
	TotalPackets    int64             `json:"total_packets"`
	EventsPerSec    float64           `json:"events_per_sec"`
	EventsPerPacket float64           `json:"events_per_packet"`

	TotalSyncAdvances int64 `json:"total_sync_horizon_advances"`
	TotalSyncWaits    int64 `json:"total_sync_blocked_waits"`
	TotalSyncWaitNs   int64 `json:"total_sync_blocked_wait_ns"`
	TotalSyncXPkts    int64 `json:"total_sync_cross_shard_events"`
	TotalSyncXBytes   int64 `json:"total_sync_cross_shard_bytes"`
}

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
	shards := flag.Int("shards", 0, "event-engine shards per run (0 = auto, 1 = serial engine)")
	checkInv := flag.Bool("check", false, "run every simulation with the runtime invariant checker (~1.4x slower)")
	faults := flag.String("faults", "", `link-fault schedule applied to every run, semicolon-separated "t:node:dir:action" events (see aasim -faults; node ids refer to the scaled partitions)`)
	observeRuns := flag.Bool("observe", false, "instrument every run and print a per-run observation table after each experiment")
	traceOut := flag.String("trace-out", "", "write every run's windowed observation trace as one JSONL file (implies -observe)")
	quiet := flag.Bool("quiet", false, "suppress per-row progress lines on stderr")
	benchJSON := flag.String("bench-json", "", "write a machine-readable perf report to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: aabench -exp <id>")
		fmt.Fprintf(os.Stderr, "experiments: %v all\n", experiments.Order)
		os.Exit(2)
	}
	cfg := experiments.Config{
		Full:       *full,
		MaxNodes:   *maxNodes,
		Seed:       *seed,
		LargeBytes: *large,
		Workers:    *workers,
		Shards:     *shards,
		Check:      *checkInv,
		Faults:     *faults,
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
	perf := benchReport{
		SchemaVersion: benchSchemaVersion,
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Workers:       parallel.Workers(*workers),
		Shards:        *shards,
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
		cfg.TracePrefix = id
		start := time.Now()
		table, err := runner(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aabench: %s: %v\n", id, err)
			failed = true
			if len(ids) == 1 {
				os.Exit(1)
			}
			continue // keep regenerating the remaining experiments
		}
		elapsed := time.Since(start)
		sec := elapsed.Seconds()
		perf.Experiments = append(perf.Experiments, benchExperiment{
			Experiment:      id,
			Seconds:         sec,
			Runs:            metrics.Runs(),
			Events:          metrics.Events(),
			QueuedEvents:    metrics.QueuedEvents(),
			Packets:         metrics.Packets(),
			EventsPerSec:    float64(metrics.Events()) / sec,
			EventsPerPacket: metrics.EventsPerPacket(),
			RunsPerSec:      float64(metrics.Runs()) / sec,
			SyncAdvances:    metrics.SyncAdvances(),
			SyncWaits:       metrics.SyncWaits(),
			SyncWaitNs:      metrics.SyncWaitNs(),
			SyncXPkts:       metrics.CrossShardEvents(),
			SyncXBytes:      metrics.CrossShardBytes(),
		})
		perf.TotalSeconds += sec
		perf.TotalRuns += metrics.Runs()
		perf.TotalEvents += metrics.Events()
		perf.TotalQueued += metrics.QueuedEvents()
		perf.TotalPackets += metrics.Packets()
		perf.TotalSyncAdvances += metrics.SyncAdvances()
		perf.TotalSyncWaits += metrics.SyncWaits()
		perf.TotalSyncWaitNs += metrics.SyncWaitNs()
		perf.TotalSyncXPkts += metrics.CrossShardEvents()
		perf.TotalSyncXBytes += metrics.CrossShardBytes()
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
	if perf.TotalSeconds > 0 {
		perf.EventsPerSec = float64(perf.TotalEvents) / perf.TotalSeconds
	}
	if perf.TotalPackets > 0 {
		perf.EventsPerPacket = float64(perf.TotalQueued) / float64(perf.TotalPackets)
	}
	if *benchJSON != "" {
		buf, err := json.MarshalIndent(perf, "", "  ")
		if err != nil {
			fatalf("-bench-json: %v", err)
		}
		if err := os.WriteFile(*benchJSON, append(buf, '\n'), 0o644); err != nil {
			fatalf("-bench-json: %v", err)
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
