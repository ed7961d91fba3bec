package experiments

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"alltoall/internal/collective"
	"alltoall/internal/network"
	"alltoall/internal/parallel"
	"alltoall/internal/torus"
)

// TestPoolWorkerCoresAreFirstEngines pins the engine count of a grid cell
// left to the engine (Config.Shards 0) on GOMAXPROCS 2: the worker's own
// core is the run's first engine, so a 128-node run on a one-worker pool
// takes the idle second core too, while on a pool with a worker per core
// every core is held and each run stays on one engine. Both workers of the
// full pool are then held in a lighter cell, which the heaviest-first order
// hands out after both measured ones, until both measured runs are done, so
// neither run can see the other's core freed.
func TestPoolWorkerCoresAreFirstEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	before := parallel.CoresInUse()
	measured := func(ss *network.SyncStats, hold *sync.WaitGroup) cell {
		return cell{strat: collective.StratAR, paper: torus.New(8, 4, 4), msg: 64,
			tune: func(o *collective.Options) error {
				hold.Done()
				hold.Wait()
				o.SyncStats = ss
				return nil
			}}
	}

	var lone network.SyncStats
	var one sync.WaitGroup
	one.Add(1)
	if _, err := runGrid(Config{Workers: 1}, "lone", []cell{measured(&lone, &one)}); err != nil {
		t.Fatal(err)
	}
	if lone.Shards != 2 {
		t.Errorf("8x4x4 on a one-worker pool with 2 cores ran %d engines, want 2", lone.Shards)
	}

	var full [2]network.SyncStats
	var start, end sync.WaitGroup
	start.Add(2)
	end.Add(2)
	var grid []cell
	for i := range full {
		grid = append(grid, measured(&full[i], &start), cell{strat: collective.StratAR, paper: torus.New(4, 4, 2), msg: 8,
			tune: func(*collective.Options) error { end.Done(); end.Wait(); return nil }})
	}
	if _, err := runGrid(Config{Workers: 2}, "full", grid); err != nil {
		t.Fatal(err)
	}
	for i, ss := range full {
		if ss.Shards != 1 {
			t.Errorf("row %d on a pool with a worker per core ran %d engines, want 1", i, ss.Shards)
		}
	}
	if n := parallel.CoresInUse(); n != before {
		t.Errorf("%d cores in use after the grids, %d before", n, before)
	}
}

// TestGridFailureAbortsRunningCells: a cell that fails at once (a fault
// schedule that does not parse) fails the grid, and the cancellation reaches
// the long cell already running beside it on the other worker, which never
// completes.
func TestGridFailureAbortsRunningCells(t *testing.T) {
	started := make(chan struct{})
	long := cell{strat: collective.StratAR, paper: torus.New(8, 8, 8), msg: 960,
		tune: func(*collective.Options) error { close(started); return nil }}
	failing := cell{strat: collective.StratAR, paper: torus.New(4, 4, 2), msg: 8,
		tune: func(o *collective.Options) error {
			<-started
			o.Faults = "not a schedule"
			return nil
		}}
	var m Metrics
	_, err := runGrid(Config{Workers: 2, Metrics: &m}, "abort", []cell{long, failing})
	if err == nil || !strings.Contains(err.Error(), "abort: AR 4x4x2 m=8") {
		t.Fatalf("grid error %v does not name the failing cell", err)
	}
	if n := m.Runs(); n != 0 {
		t.Errorf("%d runs completed, want 0: the long cell ran to the end", n)
	}
}
