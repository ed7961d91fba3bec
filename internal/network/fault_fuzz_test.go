package network

import (
	"errors"
	"testing"

	"alltoall/internal/check"
	"alltoall/internal/torus"
)

// FuzzFaultSchedule fuzzes the -faults spec grammar: every accepted spec
// must have a canonical encoding that is a parse/encode fixed point, and
// every accepted schedule that names real links of a small torus must run
// to an honest outcome under the invariant checker - checker-clean
// completion with the delivery ledger intact, or an explicit stall/abort
// error. An invariant violation is a bug regardless of how hostile the
// schedule is.
func FuzzFaultSchedule(f *testing.F) {
	f.Add("0:12:+x:kill;5000:40:-y:down;9000:40:-y:up;0:7:+z:x4")
	f.Add("")
	f.Add("1:0:+x:down;2:0:+x:up")
	f.Add("0:5:+x:x4096")
	f.Add("0:63:-z:kill;0:0:+z:kill")
	f.Fuzz(func(t *testing.T, spec string) {
		fs, err := ParseFaults(spec)
		if err != nil {
			return // invalid specs only need to be rejected cleanly
		}
		enc := fs.String()
		fs2, err := ParseFaults(enc)
		if err != nil {
			t.Fatalf("canonical encoding %q of %q does not re-parse: %v", enc, spec, err)
		}
		if got := fs2.String(); got != enc {
			t.Fatalf("encoding is not a fixed point: %q -> %q", enc, got)
		}
		if len(fs.Events) == 0 || len(fs.Events) > 12 {
			return // engine smoke only for small non-empty schedules
		}
		shape := torus.New(4, 4, 4)
		p := shape.P()
		srcs := make([]Source, p)
		for n := 0; n < p; n++ {
			srcs[n] = &allToAllSource{self: int32(n), p: int32(p), size: 96}
		}
		nw, err := New(shape, DefaultParams(), srcs, countOnly{})
		if err != nil {
			t.Fatal(err)
		}
		if fs.Validate(shape) != nil {
			return // schedule names links this machine does not have
		}
		if _, _, err := nw.RunSharded(RunSpec{MaxTime: 1 << 40, Shards: 1, Check: true, Faults: fs}); err != nil {
			var v *check.Violation
			if errors.As(err, &v) {
				t.Fatalf("schedule %q: invariant violation: %v", enc, err)
			}
			return // stalls and severed rings are honest outcomes
		}
		st := nw.Stats()
		if st.PacketsInjected != st.TotalDelivered {
			t.Fatalf("schedule %q: delivery ledger broken: %d injected, %d delivered",
				enc, st.PacketsInjected, st.TotalDelivered)
		}
	})
}
