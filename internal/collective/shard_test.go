package collective

import (
	"reflect"
	"testing"

	"alltoall/internal/torus"
)

// TestShardedResultsMatchSerial runs every strategy - including TPS with
// credit flow control - on the serial and on the sharded engine and demands
// identical Result structs: the collective layer's handlers and sources
// must be safely partitioned by node, and the engine must be deterministic.
func TestShardedResultsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	base := Options{Request: Request{Shape: torus.New(4, 4, 2), MsgBytes: 512, Seed: 3}}
	credit := base
	credit.TPSCreditWindow = 20
	credit.TPSCreditBatch = 5
	type cse struct {
		name  string
		strat Strategy
		opts  Options
	}
	cases := make([]cse, 0, len(Strategies())+1)
	for _, s := range Strategies() {
		cases = append(cases, cse{string(s), s, base})
	}
	cases = append(cases, cse{"TPS+credit", StratTPS, credit})
	for _, c := range cases {
		ref, err := run(c.strat, c.opts)
		if err != nil {
			t.Fatalf("%s serial: %v", c.name, err)
		}
		for _, shards := range []int{2, 7} {
			opts := c.opts
			opts.Shards = shards
			got, err := run(c.strat, opts)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", c.name, shards, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s shards=%d: result differs from serial\nserial:  %+v\nsharded: %+v",
					c.name, shards, ref, got)
			}
		}
	}
}
