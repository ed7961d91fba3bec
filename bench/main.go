// Command bench is the repository's benchmark: four named workloads that
// drive the simulator the three ways users do (single runs, aabench suites,
// aaserve requests), a fixed set of end-to-end metrics measured with tracing
// off, and per-layer metrics from a separate traced run. BENCHMARK.json at
// the repository root declares the workloads, metrics and regression bounds;
// README.md in this directory says why each was chosen.
//
//	go run ./bench -workload paper-rows -seed 1              # end-to-end metrics
//	go run ./bench -workload paper-rows -seed 1 -trace 1     # per-layer metrics
//	go run ./bench -validate bench/out/<run>/paper-rows/result.json
//	go run ./bench -compare bench/out/A bench/out/B
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is 1 when an
// output check failed and 2 when the benchmark itself could not run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: paper-rows, sharded-asym, short-suite or serve-mix")
		seed     = flag.Uint64("seed", 1, "seed every generated input derives from")
		secs     = flag.Float64("seconds", 25, "how long to keep starting passes of the workload")
		trace    = flag.Int("trace", 0, "1 makes the separate traced run that yields the per-layer metrics")
		scale    = flag.String("scale", "full", "full, or smoke for the seconds-long version the tests run")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory the run's <UTC-timestamp>/<workload>/ record goes under")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark declaration -validate and -compare read")
		validate = flag.String("validate", "", "check a result.json against the declaration and exit")
		compare  = flag.Bool("compare", false, "compare two sets of results (files or directories), given as arguments, under the declared bounds")
	)
	flag.Parse()

	var err error
	switch {
	case *validate != "":
		err = runValidate(*specPath, *validate, os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two arguments: the baseline set and the set under test")
			break
		}
		err = runCompare(*specPath, flag.Arg(0), flag.Arg(1), os.Stdout)
	default:
		if *scale != "full" && *scale != "smoke" {
			err = fmt.Errorf("unknown scale %q", *scale)
			break
		}
		var correct bool
		correct, err = runAndRecord(runConfig{workload: *name, seed: *seed, seconds: *secs, traced: *trace != 0, scale: *scale}, *outDir)
		if err == nil && !correct {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

// runAndRecord makes one run, writes its record under
// <outDir>/<UTC-timestamp>/<workload>/ (result.json, trace.jsonl for a
// traced run, stderr.log) and prints the metrics.
func runAndRecord(cfg runConfig, outDir string) (correct bool, err error) {
	if _, ok := findWorkload(cfg.workload); !ok {
		return false, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	dir := filepath.Join(outDir, time.Now().UTC().Format("20060102T150405.000Z"), cfg.workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	logFile, err := os.Create(filepath.Join(dir, "stderr.log"))
	if err != nil {
		return false, err
	}
	defer logFile.Close()
	cfg.log = io.MultiWriter(os.Stderr, logFile)

	res, spans, err := run(cfg)
	if err != nil {
		fmt.Fprintln(logFile, "bench:", err)
		return false, err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	if cfg.traced {
		if err := writeJSONL(filepath.Join(dir, "trace.jsonl"), spans); err != nil {
			return false, err
		}
		printSelfTimes(cfg.log, spans)
	}
	for _, f := range res.Failures {
		fmt.Fprintln(cfg.log, "FAILED:", f)
	}
	fmt.Fprintf(cfg.log, "record: %s\n", dir)
	printMetrics(os.Stdout, res)

	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

// printMetrics lists every metric by name with its unit, and the sample
// count behind the percentiles.
func printMetrics(w io.Writer, r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "%s seed=%d passes=%d\t\t\n", r.Workload, r.Seed, r.Passes)
	for _, n := range names {
		note := ""
		if n == "op_tail_ms" {
			note = fmt.Sprintf("(p%.1f of %d samples)", r.TailPercentile, r.OpSamples)
		}
		fmt.Fprintf(tw, "%s\t%.6g %s\t%s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit, note)
	}
	fmt.Fprintf(tw, "checks\t%d attempted, %d failed\t\n", r.Attempted, r.Failed)
	tw.Flush()
}

// printSelfTimes reports where the traced passes spent their time, layer by
// layer.
func printSelfTimes(w io.Writer, spans []span) {
	st := selfTimes(spans)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "span\tcount\ttotal s\tself s")
	for _, n := range names {
		fmt.Fprintf(tw, "%s\t%d\t%.4f\t%.4f\n", n, st[n].Count, float64(st[n].Total)/1e9, float64(st[n].Self)/1e9)
	}
	tw.Flush()
}
