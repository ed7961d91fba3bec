package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// spec mirrors BENCHMARK.json, the contract between this program and
// whatever drives it. The file is the single record of metric names, units,
// directions and regression bounds: -validate and -compare read it, and the
// tests check that a run emits exactly what it declares.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specWL     `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the record one run writes to result.json. The last line of
// standard output is its {correct, attempted, failed, metrics} subset.
type result struct {
	SchemaVersion int     `json:"schema_version"`
	Workload      string  `json:"workload"`
	Seed          uint64  `json:"seed"`
	Seconds       float64 `json:"seconds"`
	Scale         string  `json:"scale"`
	Trace         bool    `json:"trace"`
	StartedUTC    string  `json:"started_utc"`
	Host          host    `json:"host"`
	// CoresShort marks a run of the sharded workload on a box with fewer
	// cores than shards: its wall-time metrics are reported, never compared.
	CoresShort bool `json:"cores_short,omitempty"`
	// Inputs describes the generated inputs, so a result file says what was
	// run without the source at hand.
	Inputs []string `json:"inputs"`
	Passes int      `json:"passes"`
	// Tail says which percentile op_tail_ms is on this run, and from how
	// many samples.
	TailPercentile float64 `json:"op_tail_percentile,omitempty"`
	OpSamples      int     `json:"op_samples,omitempty"`
	// PassWallS is the wall time of every untraced pass, in order, so the
	// noise inside a run can be told from the noise between runs.
	PassWallS []float64 `json:"pass_wall_s,omitempty"`
	// PassStolenS is the CPU time the hypervisor withheld from the box during
	// each of those passes (steal, summed over CPUs).
	PassStolenS []float64 `json:"pass_stolen_s,omitempty"`

	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func loadResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// declared returns the metrics a run must emit: the end-to-end set for an
// untraced run, the per-layer set for a traced one.
func (s *spec) declared(traced bool) []specMetric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// validate checks a result against the spec: a workload this program has,
// and every declared metric of the run's kind present, finite and in the
// declared unit, with nothing undeclared beside them.
func (s *spec) validate(r *result) []string {
	var errs []string
	if _, known := findWorkload(r.Workload); !known {
		errs = append(errs, fmt.Sprintf("workload %q is unknown", r.Workload))
	}
	if r.Attempted < 1 {
		errs = append(errs, fmt.Sprintf("attempted = %d, want at least 1", r.Attempted))
	}
	want := make(map[string]bool)
	for _, d := range s.declared(r.Trace) {
		want[d.Name] = true
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			errs = append(errs, fmt.Sprintf("metric %s is missing", d.Name))
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			errs = append(errs, fmt.Sprintf("metric %s is not finite", d.Name))
		case m.Unit != d.Unit:
			errs = append(errs, fmt.Sprintf("metric %s has unit %q, declared %q", d.Name, m.Unit, d.Unit))
		}
	}
	for name := range r.Metrics {
		if !want[name] {
			errs = append(errs, fmt.Sprintf("metric %s is not declared", name))
		}
	}
	sort.Strings(errs)
	return errs
}

// loadSet gathers the untraced results of one set of runs: a result file, or
// every result.json below a directory, grouped by workload.
func loadSet(path string) (map[string][]*result, error) {
	set := make(map[string][]*result)
	add := func(p string) error {
		r, err := loadResult(p)
		if err != nil {
			return err
		}
		if !r.Trace {
			set[r.Workload] = append(set[r.Workload], r)
		}
		return nil
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return set, add(path)
	}
	err = filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() != "result.json" {
			return err
		}
		return add(p)
	})
	return set, err
}

// verdict is one row of a comparison.
type verdict struct {
	Workload, Metric, Unit string
	A, B                   float64 // medians
	SpreadA, SpreadB       float64 // interquartile range over median; NaN with < 2 runs
	Bound                  float64
	Outcome                string // ok | regressed | unresolved | skipped
}

// compareSets applies the spec's bounds to every (end-to-end metric,
// workload) pair present in both sets. B regresses when its median is worse
// than A's by more than the bound. Where either set's own spread exceeds the
// bound the pair is unresolved, not unchanged - unless every run of B reads
// better than every run of A.
func (s *spec) compareSets(a, b map[string][]*result) []verdict {
	var out []verdict
	for _, w := range workloads {
		ra, rb := a[w.name], b[w.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		short := false
		for _, r := range append(append([]*result(nil), ra...), rb...) {
			short = short || r.CoresShort
		}
		for _, m := range s.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			v := verdict{Workload: w.name, Metric: m.Name, Unit: m.Unit, Bound: m.Bound,
				A: median(va), B: median(vb), SpreadA: spread(va), SpreadB: spread(vb)}
			sign := 1.0 // lower is better
			if m.Better == "higher" {
				sign = -1
			}
			worse := sign * (v.B - v.A) / math.Abs(v.A)
			switch {
			case short && m.Name != "peak_rss_mb":
				v.Outcome = "skipped" // cores_short: times are not comparable
			case allBetter(va, vb, sign):
				v.Outcome = "ok"
			case v.SpreadA > m.Bound || v.SpreadB > m.Bound:
				v.Outcome = "unresolved"
			case worse > m.Bound:
				v.Outcome = "regressed"
			default:
				v.Outcome = "ok"
			}
			out = append(out, v)
		}
	}
	return out
}

func values(rs []*result, name string) []float64 {
	var vs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// allBetter reports whether every run of b beats every run of a.
func allBetter(a, b []float64, sign float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	worstB, bestA := math.Inf(-1), math.Inf(1)
	for _, x := range b {
		worstB = math.Max(worstB, sign*x)
	}
	for _, x := range a {
		bestA = math.Min(bestA, sign*x)
	}
	return worstB < bestA
}

func writeVerdicts(w io.Writer, vs []verdict) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tunit\tB vs A\tspread A\tspread B\tbound\toutcome")
	for _, v := range vs {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.1f%%\t%s\t%s\t%.0f%%\t%s\n",
			v.Workload, v.Metric, v.A, v.B, v.Unit, 100*(v.B-v.A)/math.Abs(v.A),
			pct(v.SpreadA), pct(v.SpreadB), 100*v.Bound, v.Outcome)
	}
	tw.Flush()
}

func pct(x float64) string {
	if math.IsNaN(x) {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*x)
}

// runValidate implements -validate: exit status 0 only for a conforming file.
func runValidate(specPath, resultPath string, out io.Writer) error {
	s, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	r, err := loadResult(resultPath)
	if err != nil {
		return err
	}
	if errs := s.validate(r); len(errs) > 0 {
		return fmt.Errorf("%s does not conform to %s:\n  %s", resultPath, specPath, strings.Join(errs, "\n  "))
	}
	fmt.Fprintf(out, "%s: ok (%s, %d metrics)\n", resultPath, r.Workload, len(r.Metrics))
	return nil
}

// runCompare implements -compare: one row per (workload, metric), and an
// error when any pair regressed.
func runCompare(specPath, a, b string, out io.Writer) error {
	s, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	sa, err := loadSet(a)
	if err != nil {
		return err
	}
	sb, err := loadSet(b)
	if err != nil {
		return err
	}
	vs := s.compareSets(sa, sb)
	if len(vs) == 0 {
		return fmt.Errorf("no workload has untraced results in both %s and %s", a, b)
	}
	writeVerdicts(out, vs)
	regressed := 0
	for _, v := range vs {
		if v.Outcome == "regressed" {
			regressed++
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d (metric, workload) pairs regressed", regressed)
	}
	return nil
}
