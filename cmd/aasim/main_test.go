package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"alltoall"
	"alltoall/internal/report"
)

// TestMain runs the command itself when a test re-executes this binary with
// "aasim" as its first argument (see aasimExit); otherwise the tests.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "aasim" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// aasimExit runs the command with args in a child process and returns its
// exit code and combined output.
func aasimExit(t *testing.T, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(os.Args[0], append([]string{"aasim"}, args...)...).CombinedOutput()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), string(out)
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, string(out)
}

// TestBadFaultsExitBeforeRun: a -faults schedule that parses but does not
// fit the shape is a usage error (exit 2) caught before the simulation
// starts, not a failed run (exit 1).
func TestBadFaultsExitBeforeRun(t *testing.T) {
	for _, args := range [][]string{
		{"-shape", "4x4x2", "-faults", "0:999:+x:kill"},
		{"-shape", "4x4x4M", "-faults", "0:0:-z:kill"},
		{"-shape", "4x4x2", "-faults", "0:1:+x:kill;5:1:+x:up"},
	} {
		code, out := aasimExit(t, append(args, "-msg", "8")...)
		if code != 2 || strings.Contains(out, "simulated in") {
			t.Errorf("aasim %v: exit %d, want 2 before the run:\n%s", args, code, out)
		}
	}
	if code, out := aasimExit(t, "-shape", "4x4x2", "-msg", "8", "-faults", "0:5:+x:kill"); code != 0 {
		t.Errorf("a valid schedule: exit %d:\n%s", code, out)
	}
}

func TestParseShape(t *testing.T) {
	cases := []struct {
		in      string
		size    [3]int
		wrap    [3]bool
		wantErr bool
	}{
		{"8x8x8", [3]int{8, 8, 8}, [3]bool{true, true, true}, false},
		{"8", [3]int{8, 1, 1}, [3]bool{true, false, false}, false},
		{"8x32", [3]int{8, 32, 1}, [3]bool{true, true, false}, false},
		{"8x8x4M", [3]int{8, 8, 4}, [3]bool{true, true, false}, false},
		{"8x8x4m", [3]int{8, 8, 4}, [3]bool{true, true, false}, false},
		{"8x2", [3]int{8, 2, 1}, [3]bool{true, false, false}, false},
		{"", [3]int{}, [3]bool{}, true},
		{"8x8x8x8", [3]int{}, [3]bool{}, true},
		{"axb", [3]int{}, [3]bool{}, true},
		{"0x8", [3]int{}, [3]bool{}, true},
	}
	for _, c := range cases {
		s, err := alltoall.ParseShape(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseShape(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if s.Size != c.size || s.Wrap != c.wrap {
			t.Errorf("ParseShape(%q) = %+v, want size %v wrap %v", c.in, s, c.size, c.wrap)
		}
	}
}

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./cmd/aasim -update` to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s rendering drifted from golden file (re-run with -update if intended)\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

// goldenFaults is the fault schedule the faulted fixtures share: a permanent
// kill plus a transient outage on a 4x4x2 torus.
const goldenFaults = "0:5:+x:kill;300:12:-y:down;2500:12:-y:up"

// goldenRun executes one deterministic configuration: fixed shape, seed, and
// message size, invariant checker on. Everything the goldens pin is
// byte-identical at any shard count; the serial engine is just the simplest
// fixture (TestGoldenShardIndependent holds the rendering to that claim).
// tune edits the request last.
func goldenRun(t *testing.T, strat alltoall.Strategy, faults string, shards int, obs *alltoall.Collector, tune ...func(*alltoall.Request)) alltoall.Result {
	t.Helper()
	shape, err := alltoall.ParseShape("4x4x2")
	if err != nil {
		t.Fatal(err)
	}
	req := alltoall.Request{Strategy: strat, Shape: shape, MsgBytes: 240, Seed: 1, Check: true, Shards: shards}
	if faults != "" {
		fs, err := alltoall.ParseFaults(faults)
		if err != nil {
			t.Fatal(err)
		}
		req.Faults = fs.String()
	}
	for _, f := range tune {
		f(&req)
	}
	var opts []alltoall.Option
	if obs != nil {
		opts = append(opts, alltoall.WithObserver(obs))
	}
	res, err := alltoall.Run(context.Background(), req, opts...)
	if err != nil {
		t.Fatalf("%s run: %v", strat, err)
	}
	return res
}

// TestGoldenResult locks the deterministic result block for a healthy run of
// every strategy, and of the two-phase schedule under credit flow control,
// pinning layout, number formatting, and the simulated values. The files are
// the byte-level oracle for changes to the strategies; result_counters.golden
// adds the counters the printed block omits (events, last injection,
// forwarding backlog, credit packets, CPU load), so a schedule that reorders
// one packet shows up here.
func TestGoldenResult(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	credit := func(r *alltoall.Request) { r.TPSCreditWindow, r.TPSCreditBatch = 16, 8 }
	cases := []struct {
		name  string
		strat alltoall.Strategy
		tune  []func(*alltoall.Request)
	}{
		{"AR", alltoall.AR, nil},
		{"DR", alltoall.DR, nil},
		{"Throttle", alltoall.Throttle, nil},
		{"MPI", alltoall.MPI, nil},
		{"TPS", alltoall.TPS, nil},
		{"VMesh", alltoall.VMesh, nil},
		{"XYZ", alltoall.XYZ, nil},
		{"TPS-credit", alltoall.TPS, []func(*alltoall.Request){credit}},
	}
	var counters strings.Builder
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := goldenRun(t, c.strat, "", 1, nil, c.tune...)
			var b strings.Builder
			renderResult(&b, res)
			checkGolden(t, "result_"+strings.ToLower(c.name)+".golden", []byte(b.String()))
			fmt.Fprintf(&counters, "%-10s events %d last-inject %d backlog %d credits %d cpu mean %.6f max %.6f latency %.6f\n",
				c.name, res.Events, res.LastInjectUnits, res.MaxIntermediateBacklog, res.CreditPackets,
				res.MeanCPUUtil, res.MaxCPUUtil, res.MeanLatencyUnits)
		})
	}
	checkGolden(t, "result_counters.golden", []byte(counters.String()))
}

// TestGoldenFaultedResult locks the rendering of a faulted run, including the
// faults line and the attribution report's fault section. The fixture doubles
// as an end-to-end regression for the -faults path: schedule parsing,
// graceful degradation, checker-clean completion, and deterministic fault
// observability.
func TestGoldenFaultedResult(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	obs := alltoall.NewCollector(alltoall.ObserveConfig{})
	res := goldenRun(t, alltoall.AR, goldenFaults, 1, obs)
	if res.DeadLinkTicks == 0 {
		t.Error("faulted golden run accrued no dead-link ticks")
	}
	var b strings.Builder
	renderResult(&b, res)
	b.WriteByte('\n')
	if err := report.WriteAttribution(&b, obs); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "result_ar_faulted.golden", []byte(b.String()))
}

// TestGoldenShardIndependent asserts the golden rendering really is
// shard-count independent: the faulted fixture on the 4-way sharded engine
// must render byte-identically to the serial golden file.
func TestGoldenShardIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	res := goldenRun(t, alltoall.AR, goldenFaults, 4, nil)
	var b strings.Builder
	renderResult(&b, res)
	serial := goldenRun(t, alltoall.AR, goldenFaults, 1, nil)
	var a strings.Builder
	renderResult(&a, serial)
	if a.String() != b.String() {
		t.Errorf("sharded faulted run renders differently:\nserial:\n%s\nsharded:\n%s", a.String(), b.String())
	}
}

// TestFooterNamesTheEngineThatRan: the engine clamps a shard request to the
// node count, and the footer reports what ran, not what was asked for.
func TestFooterNamesTheEngineThatRan(t *testing.T) {
	shape, err := alltoall.ParseShape("4x4x2")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		shards int
		want   string
	}{{99, "(32 shards engine, "}, {3, "(3 shards engine, "}, {1, "(serial engine, "}} {
		res, ss, err := simulate(alltoall.Request{Strategy: alltoall.AR, Shape: shape, MsgBytes: 64, Seed: 1, Shards: tc.shards})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		renderFooter(&b, time.Second, ss, res.Events)
		if !strings.Contains(b.String(), tc.want) {
			t.Errorf("-shards %d on %d nodes: footer %q, want it to say %q", tc.shards, shape.P(), b.String(), tc.want)
		}
	}
}
