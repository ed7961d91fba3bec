package collective

import (
	"context"
	"reflect"
	"testing"

	"alltoall/internal/torus"
)

// TestDistinctTraffic is the differential oracle of SameTraffic and
// Retarget. On a torus and a mesh, every strategy runs at m = 1..16 and on
// both sides of the packet boundaries the experiments' sizes cross (16/17,
// 208/209, 464/465); VMesh also runs on an unbalanced 16x4 virtual mesh,
// whose two phase messages differ. For every pair of sizes a < b of one
// run, SameTraffic must group them exactly when their simulations inject the
// same wire bytes, and a grouped b must read, retargeted from a's Result,
// exactly the Result of its own simulation.
func TestDistinctTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	var sizes []int
	for m := 1; m <= 16; m++ {
		sizes = append(sizes, m)
	}
	sizes = append(sizes, 17, 208, 209, 464, 465)
	for _, shape := range []torus.Shape{torus.New(4, 4, 4), torus.NewMesh(8, 4, 2, true, true, false)} {
		var runs []Request
		for _, strat := range Strategies() {
			runs = append(runs, Request{Strategy: strat, Shape: shape, Seed: 1, Shards: 1})
		}
		runs = append(runs, Request{Strategy: StratVMesh, Shape: shape, Seed: 1, Shards: 1, VMeshCols: 16, VMeshRows: 4})
		for _, run := range runs {
			strat := run.Strategy
			req := func(m int) Request {
				run.MsgBytes = m
				return run
			}
			res := make([]Result, len(sizes))
			cache := &NetCache{}
			for i, m := range sizes {
				var err error
				if res[i], err = Run(context.Background(), Options{Request: req(m), Cache: cache}); err != nil {
					t.Fatalf("%s %v m=%d: %v", strat, shape, m, err)
				}
			}
			grouped := 0
			for i, a := range sizes {
				lead := Options{Request: req(a)}
				for j, b := range sizes[i+1:] {
					want := res[i+1+j]
					same := lead.SameTraffic(b)
					if wire := res[i].WireBytes == want.WireBytes; same != wire {
						t.Errorf("%s %v: SameTraffic(%d -> %d) = %v, but the runs inject %d and %d wire bytes",
							strat, shape, a, b, same, res[i].WireBytes, want.WireBytes)
					}
					if !same {
						continue
					}
					grouped++
					if got := lead.Retarget(res[i], b); !reflect.DeepEqual(got, want) {
						t.Errorf("%s %v: m=%d retargeted from m=%d\n got %+v\nwant %+v", strat, shape, b, a, got, want)
					}
				}
			}
			if grouped == 0 {
				t.Errorf("%s %v: no two sizes share traffic, so nothing was compared", strat, shape)
			}
		}
	}
}
