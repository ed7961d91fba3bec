package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

const specFile = "../BENCHMARK.json"

func mustSpec(t *testing.T) *spec {
	t.Helper()
	s, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmokeRunsMatchSpec makes a seconds-long run of every workload, untraced
// and traced, and holds each record to BENCHMARK.json: exactly the declared
// metrics, finite, in the declared units, every output check passing.
func TestSmokeRunsMatchSpec(t *testing.T) {
	s := mustSpec(t)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			res, spans, err := run(runConfig{workload: wl.name, seed: 7, seconds: 0.1, traced: traced, scale: "smoke", log: io.Discard})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: %d of %d checks failed: %v", wl.name, traced, res.Failed, res.Attempted, res.Failures)
			}
			for _, e := range s.validate(res) {
				t.Errorf("%s traced=%v: %s", wl.name, traced, e)
			}
			if traced == (len(spans) == 0) {
				t.Errorf("%s traced=%v: %d spans", wl.name, traced, len(spans))
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, name, m.Value)
					}
				}
			}
		}
	}
}

// TestSpecMatchesCode keeps BENCHMARK.json and the tables in the code from
// drifting apart.
func TestSpecMatchesCode(t *testing.T) {
	s := mustSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		if w.name != "sharded-asym" { // runnable, but not declared to the driver: see README.md
			want = append(want, w.name)
		}
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads: BENCHMARK.json has %v, the code %v", names, want)
	}
	var declared []layerDecl
	for _, m := range s.PerLayer {
		declared = append(declared, layerDecl{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(declared, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json and the perLayer table differ")
	}
	hasSetup := false
	for _, m := range s.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, wl := range workloads {
		var got [3][]string
		for i, seed := range []uint64{5, 5, 6} {
			inst, err := wl.prepare(env{seed: seed, scale: "smoke", par: 2})
			if err != nil {
				t.Fatal(err)
			}
			got[i] = inst.inputs()
			if sim, ok := inst.(*simInstance); ok {
				for _, r := range sim.rows {
					got[i] = append(got[i], r.req.Key())
				}
			}
			inst.close()
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Errorf("%s: the same seed gave different inputs", wl.name)
		}
		if reflect.DeepEqual(got[0], got[2]) && wl.name != "serve-mix" { // serve-mix is covered below
			t.Errorf("%s: different seeds gave the same inputs", wl.name)
		}
	}
}

func TestServePopulation(t *testing.T) {
	keys, byRank := servePopulation(11, false)
	keys2, byRank2 := servePopulation(11, false)
	if !reflect.DeepEqual(keys, keys2) || !reflect.DeepEqual(byRank, byRank2) {
		t.Fatal("the same seed gave a different population")
	}
	if other, _ := servePopulation(12, false); reflect.DeepEqual(keys, other) {
		t.Error("different seeds gave the same keys")
	}
	if len(keys) != serveKeys {
		t.Fatalf("%d keys, want %d", len(keys), serveKeys)
	}
	distinct := make(map[string]bool)
	for _, k := range keys {
		if err := k.Validate(); err != nil {
			t.Fatal(err)
		}
		distinct[k.Key()] = true
	}
	if len(distinct) != len(keys) {
		t.Errorf("%d distinct keys of %d", len(distinct), len(keys))
	}
	// byRank is a permutation, and every block of 64 ranks holds each
	// (strategy, shape, size) combination once.
	seen := make(map[int]bool)
	for lo := 0; lo+64 <= len(byRank); lo += 64 {
		combos := make(map[string]bool)
		for _, k := range byRank[lo : lo+64] {
			seen[k] = true
			r := keys[k]
			combos[string(r.Strategy)+r.Shape.Canon()+string(rune(r.MsgBytes))] = true
		}
		if len(combos) != 64 {
			t.Errorf("ranks %d..%d hold %d combinations, want 64", lo, lo+63, len(combos))
		}
	}
	for _, k := range byRank[len(byRank)/64*64:] {
		seen[k] = true
	}
	if len(seen) != len(keys) {
		t.Errorf("byRank covers %d keys of %d", len(seen), len(keys))
	}

	seqs := serveSequences(11, 2, 4000, byRank)
	if !reflect.DeepEqual(seqs, serveSequences(11, 2, 4000, byRank)) {
		t.Error("the same seed gave different client sequences")
	}
	if reflect.DeepEqual(seqs[0], seqs[1]) {
		t.Error("both clients draw the same sequence")
	}
	// Zipf(1.0) over 400 keys: the top key is drawn about 1/H(400) = 15% of
	// the time, the top 64 about 72%.
	count := make(map[int]int)
	for _, k := range seqs[0] {
		count[k]++
	}
	top := float64(count[byRank[0]]) / float64(len(seqs[0]))
	var hot int
	for _, k := range byRank[:64] {
		hot += count[k]
	}
	if top < 0.12 || top > 0.19 {
		t.Errorf("the top key is drawn %.3f of the time, want about 0.15", top)
	}
	if share := float64(hot) / float64(len(seqs[0])); share < 0.66 || share > 0.78 {
		t.Errorf("the top 64 keys are drawn %.3f of the time, want about 0.72", share)
	}
}

func TestTailPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i) // descending: the helper must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {14, 50}, {39, 50}, // fewer than ten beyond p75
		{40, 75}, {99, 75},
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 99}, {9999, 99},
		{10000, 99.9},
	} {
		got := tailPercentile(ramp(c.n), 100)
		if got.Percentile != c.want || got.Samples != c.n {
			t.Errorf("n=%d: p%v of %d samples, want p%v of %d", c.n, got.Percentile, got.Samples, c.want, c.n)
		}
		if want := float64(c.n-1) * got.Percentile / 100; math.Abs(got.Value-want) > 1e-6 {
			t.Errorf("n=%d: p%v = %v, want %v", c.n, got.Percentile, got.Value, want)
		}
	}
	// A cap holds the rung down however many samples there are.
	if got := tailPercentile(ramp(5000), 90); got.Percentile != 90 || got.Samples != 5000 {
		t.Errorf("capped at 90: p%v of %d samples", got.Percentile, got.Samples)
	}
	if got := tailPercentile(ramp(60), 90); got.Percentile != 75 {
		t.Errorf("capped at 90 with 60 samples: p%v, want p75", got.Percentile)
	}
}

// TestQuartiles pins the helper to Python's statistics.quantiles(xs, n=4),
// which the acceptance driver uses for the spread of a set of runs.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; Python gives 3.5, 31.0", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2, 9, 5})
	if q1 != 1.5 || q3 != 7 {
		t.Errorf("quartiles = %v, %v; Python gives 1.5, 7.0", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	// op [0,100) -> call [10,90) -> engine [20,50) and [40,70) (overlapping,
	// as two shards would be) and one engine span that never closed.
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "call", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "engine", Start: 20, End: 50},
		{ID: 4, Parent: 2, Name: "engine", Start: 40, End: 70},
		{ID: 5, Parent: 2, Name: "engine", Start: 80, End: 0},
		{ID: 6, Name: "op", Start: 100, End: 130},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"op":     {Count: 2, Total: 130, Self: 20 + 30},
		"call":   {Count: 1, Total: 80, Self: 80 - 50}, // children cover [20,70)
		"engine": {Count: 2, Total: 60, Self: 60},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %+v, want %+v", got, want)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, tr.newOp())
	tr.end(id)
	if id != 0 || tr.snapshot() != nil {
		t.Error("a nil tracer recorded something")
	}
}

func fakeSet(workload string, wall ...float64) map[string][]*result {
	set := make(map[string][]*result)
	for _, w := range wall {
		set[workload] = append(set[workload], &result{Workload: workload,
			Metrics: map[string]metric{"wall_s": {Value: w, Unit: "s"}, "events_per_s": {Value: 100 / w, Unit: "1/s"}}})
	}
	return set
}

func TestCompareSets(t *testing.T) {
	s := &spec{
		EndToEnd: []specMetric{
			{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10},
			{Name: "events_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		},
	}
	base := fakeSet("paper-rows", 10, 10.1, 9.9, 10.05, 9.95)
	for _, c := range []struct {
		name string
		b    map[string][]*result
		want string
	}{
		{"same", fakeSet("paper-rows", 10.02, 9.98, 10.1, 9.9, 10), "ok"},
		{"slower within the bound", fakeSet("paper-rows", 10.5, 10.6, 10.4, 10.5, 10.55), "ok"},
		{"slower beyond the bound", fakeSet("paper-rows", 12, 12.1, 11.9, 12, 12.05), "regressed"},
		{"too noisy to tell", fakeSet("paper-rows", 8, 14, 9, 13, 12), "unresolved"},
		{"noisy but every run faster", fakeSet("paper-rows", 5, 8, 6, 9, 7), "ok"},
	} {
		for _, v := range s.compareSets(base, c.b) {
			if v.Outcome != c.want {
				t.Errorf("%s: %s is %s, want %s", c.name, v.Metric, v.Outcome, c.want)
			}
		}
	}
	short := fakeSet("paper-rows", 20)
	short["paper-rows"][0].CoresShort = true
	for _, v := range s.compareSets(base, short) {
		if v.Outcome != "skipped" {
			t.Errorf("cores_short: %s is %s, want skipped", v.Metric, v.Outcome)
		}
	}
}

func TestValidateAndCompareFiles(t *testing.T) {
	s := mustSpec(t)
	good := &result{Workload: s.Workloads[0].Name, Attempted: 1, Metrics: make(map[string]metric)}
	for _, m := range s.EndToEnd {
		good.Metrics[m.Name] = metric{Value: 1, Unit: m.Unit}
	}
	dir := t.TempDir()
	write := func(name string, r *result) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name, "result.json")
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var out bytes.Buffer
	if err := runValidate(specFile, write("good", good), &out); err != nil {
		t.Errorf("a conforming result was rejected: %v", err)
	}

	bad := *good
	bad.Metrics = make(map[string]metric)
	for k, v := range good.Metrics {
		bad.Metrics[k] = v
	}
	delete(bad.Metrics, "wall_s")
	bad.Metrics["setup_s"] = metric{Value: 1, Unit: "ms"}
	bad.Metrics["peak_rss_mb"] = metric{Value: math.Inf(1), Unit: "MB"}
	bad.Metrics["extra"] = metric{Value: 1, Unit: "s"}
	errs := strings.Join(s.validate(&bad), "\n")
	for _, want := range []string{"wall_s is missing", `setup_s has unit "ms"`, "peak_rss_mb is not finite", "extra is not declared"} {
		if !strings.Contains(errs, want) {
			t.Errorf("validate did not report %q; got:\n%s", want, errs)
		}
	}

	// -compare walks directories for result.json files.
	out.Reset()
	if err := runCompare(specFile, filepath.Join(dir, "good"), filepath.Join(dir, "good"), &out); err != nil {
		t.Errorf("comparing a set with itself: %v", err)
	}
	if n := strings.Count(out.String(), " ok\n"); n != len(s.EndToEnd) {
		t.Errorf("compare printed %d ok rows, want %d:\n%s", n, len(s.EndToEnd), out.String())
	}
}

// TestAllowedAPI holds the bench to the API the engine's knob-collapse will
// keep, so deleting a knob or a deprecated entry point never means editing
// the benchmark.
func TestAllowedAPI(t *testing.T) {
	forbidden := regexp.MustCompile(`\b(EventQueue|Coalesce|Sync|WithOptions|RunPattern)\b|collective\.Run\(|"alltoall"|internal/traffic`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if code, _, _ := strings.Cut(line, "//"); forbidden.MatchString(code) {
				t.Errorf("%s:%d uses an API the bench may not: %s", f, i+1, strings.TrimSpace(line))
			}
		}
	}
}
