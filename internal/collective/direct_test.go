package collective

import (
	"strings"
	"testing"

	"alltoall/internal/torus"
)

func small() torus.Shape { return torus.New(4, 4, 1) }

func TestRunARDeliversEverything(t *testing.T) {
	res, err := run(StratAR, Options{Request: Request{Shape: small(), MsgBytes: 100, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	p := int64(small().P())
	if res.PayloadBytes != p*(p-1)*100 {
		t.Errorf("payload = %d, want %d", res.PayloadBytes, p*(p-1)*100)
	}
	if res.PercentPeak <= 0 || res.PercentPeak > 100 {
		t.Errorf("percent of peak = %v out of range", res.PercentPeak)
	}
	if res.Time <= 0 || res.Seconds <= 0 {
		t.Errorf("nonpositive time %d / %v", res.Time, res.Seconds)
	}
	if res.Strategy != StratAR {
		t.Errorf("strategy = %q", res.Strategy)
	}
}

func TestRunDRDeliversEverything(t *testing.T) {
	res, err := run(StratDR, Options{Request: Request{Shape: small(), MsgBytes: 100, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	p := int64(small().P())
	if res.PayloadBytes != p*(p-1)*100 {
		t.Errorf("payload = %d", res.PayloadBytes)
	}
}

func TestRunThrottledSlowerOrEqualInjection(t *testing.T) {
	ar, err := run(StratAR, Options{Request: Request{Shape: small(), MsgBytes: 512, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	th, err := run(StratThrottle, Options{Request: Request{Shape: small(), MsgBytes: 512, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Both must finish; strict pacing cannot be more than ~2x slower than
	// the burst-paced AR on this tiny partition.
	if th.Time > 2*ar.Time {
		t.Errorf("throttled %d vs AR %d: unreasonable gap", th.Time, ar.Time)
	}
}

func TestRunMPIHasHigherOverheadThanAR(t *testing.T) {
	// With a tiny message, startup dominates: MPI (higher alpha) is slower.
	ar, err := run(StratAR, Options{Request: Request{Shape: small(), MsgBytes: 1, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	mpi, err := run(StratMPI, Options{Request: Request{Shape: small(), MsgBytes: 1, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if mpi.Time <= ar.Time {
		t.Errorf("MPI %d should be slower than AR %d for 1-byte messages", mpi.Time, ar.Time)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := run(StratAR, Options{Request: Request{Shape: torus.Shape{Size: [3]int{0, 1, 1}}, MsgBytes: 8}}); err == nil {
		t.Error("invalid shape accepted")
	}
	if _, err := run(StratAR, Options{Request: Request{Shape: small(), MsgBytes: 0}}); err == nil {
		t.Error("zero message accepted")
	}
	if _, err := run(StratAR, Options{Request: Request{Shape: small(), MsgBytes: 8, Burst: -1}}); err == nil {
		t.Error("negative burst accepted")
	}
	if _, err := run(Strategy("nope"), Options{Request: Request{Shape: small(), MsgBytes: 8}}); err == nil ||
		!strings.Contains(err.Error(), "unknown strategy") {
		t.Error("unknown strategy accepted")
	}
}

func TestRunDispatch(t *testing.T) {
	for _, s := range Strategies() {
		opts := Options{Request: Request{Shape: small(), MsgBytes: 8, Seed: 3}}
		res, err := run(s, opts)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if res.Strategy != s {
			t.Errorf("dispatch %s returned %s", s, res.Strategy)
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	a, err := run(StratAR, Options{Request: Request{Shape: small(), MsgBytes: 256, Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(StratAR, Options{Request: Request{Shape: small(), MsgBytes: 256, Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time || a.PacketsInjected != b.PacketsInjected {
		t.Errorf("same seed produced different runs: %v vs %v", a.Time, b.Time)
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	a, _ := run(StratAR, Options{Request: Request{Shape: small(), MsgBytes: 256, Seed: 1}})
	b, _ := run(StratAR, Options{Request: Request{Shape: small(), MsgBytes: 256, Seed: 2}})
	if a.Time == b.Time && a.MeanLatencyUnits == b.MeanLatencyUnits {
		t.Log("warning: different seeds produced identical timing (possible but unlikely)")
	}
}

func TestMeshPartition(t *testing.T) {
	shape := torus.NewMesh(8, 2, 1, false, false, false)
	res, err := run(StratAR, Options{Request: Request{Shape: shape, MsgBytes: 256, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	p := int64(shape.P())
	if res.PayloadBytes != p*(p-1)*256 {
		t.Errorf("payload = %d", res.PayloadBytes)
	}
}
