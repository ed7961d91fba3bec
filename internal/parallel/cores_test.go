package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
)

// TestCoresClaim pins the claim rule: a lone caller gets what it wants up to
// GOMAXPROCS, a caller that finds the cores taken gets exactly one and is
// never made to wait, a forced registration counts whatever else runs, a
// pool worker's core counts as its run's first engine, and releasing
// everything returns the count to zero.
func TestCoresClaim(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if n := CoresInUse(); n != 0 {
		t.Fatalf("%d cores in use before the test", n)
	}
	if got := ClaimCores(1, 0); got != 1 {
		t.Errorf("ClaimCores(1, 0) alone = %d", got)
	}
	ReleaseCores(1)
	got := ClaimCores(procs+5, 0)
	if got != procs {
		t.Errorf("ClaimCores(%d) alone = %d, want GOMAXPROCS %d", procs+5, got, procs)
	}
	if late := ClaimCores(4, 0); late != 1 {
		t.Errorf("ClaimCores(4, 0) with every core taken = %d, want 1", late)
	}
	UseCores(3)
	if n, want := CoresInUse(), got+1+3; n != want {
		t.Errorf("%d cores in use, want %d", n, want)
	}
	ReleaseCores(got + 1 + 3)
	if n := CoresInUse(); n != 0 {
		t.Errorf("%d cores in use after releasing every claim", n)
	}

	// A run on a pool worker: the worker registered its core, the run's
	// first engine, so the claim registers only the extras.
	UseCores(1)
	if got := ClaimCores(procs+5, 1); got != procs || CoresInUse() != procs {
		t.Errorf("a worker's run alone = %d engines with %d cores in use, want %d and %d", got, CoresInUse(), procs, procs)
	}
	if late := ClaimCores(4, 1); late != 1 || CoresInUse() != procs {
		t.Errorf("a worker's run with every core taken = %d engines with %d cores in use, want 1 and %d", late, CoresInUse(), procs)
	}
	ReleaseCores(procs)
	if n := CoresInUse(); n != 0 {
		t.Errorf("%d cores in use after the worker's claims", n)
	}
}

// TestCoresConcurrent hammers the counter from more goroutines than cores:
// every claim is between 1 and what was asked, and the count returns to zero.
func TestCoresConcurrent(t *testing.T) {
	const goroutines, rounds, want = 8, 10_000, 4
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				n := ClaimCores(want, 0)
				if n < 1 || n > want {
					t.Errorf("ClaimCores(%d) = %d", want, n)
					return
				}
				ReleaseCores(n)
			}
		}()
	}
	wg.Wait()
	if n := CoresInUse(); n != 0 {
		t.Errorf("%d cores in use after every claim was released", n)
	}
}

// TestPoolHoldsCores: each MapLocal worker registers its core for as long as
// it lives and hands fn a context that says so, so inside fn on w workers w
// cores are in use. Every worker waits in fn until all have looked, so none
// exits early.
func TestPoolHoldsCores(t *testing.T) {
	for _, w := range []int{1, 3} {
		var arrived, looked sync.WaitGroup
		arrived.Add(w)
		looked.Add(w)
		_, err := MapLocal(context.Background(), w, make([]int, w), noLocal, func(ctx context.Context, _ struct{}, _, _ int) (int, error) {
			arrived.Done()
			arrived.Wait()
			if n := CoresInUse(); n != w {
				t.Errorf("%d cores in use inside fn on %d workers", n, w)
			}
			if h := HeldCores(ctx); h != 1 {
				t.Errorf("fn's context holds %d cores, want 1", h)
			}
			looked.Done()
			looked.Wait()
			return 0, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if h := HeldCores(context.Background()); h != 0 {
		t.Errorf("a plain context holds %d cores", h)
	}
}

// TestPoolReleasesCores: the count is back at zero once MapLocal returns,
// whether every item succeeded, one failed, or the caller canceled.
func TestPoolReleasesCores(t *testing.T) {
	items := make([]int, 16)
	ok := func(context.Context, struct{}, int, int) (int, error) { return 0, nil }
	boom := errors.New("boom")
	fail := func(_ context.Context, _ struct{}, i, _ int) (int, error) {
		if i == 5 {
			return 0, boom
		}
		return 0, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	stop := func(ctx context.Context, _ struct{}, i, _ int) (int, error) {
		if i == 2 {
			cancel()
		}
		<-ctx.Done()
		return 0, nil
	}
	for name, c := range map[string]struct {
		ctx  context.Context
		fn   func(context.Context, struct{}, int, int) (int, error)
		want error
	}{
		"success": {context.Background(), ok, nil},
		"error":   {context.Background(), fail, boom},
		"cancel":  {ctx, stop, context.Canceled},
	} {
		if _, err := MapLocal(c.ctx, 4, items, noLocal, c.fn); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", name, err, c.want)
		}
		if n := CoresInUse(); n != 0 {
			t.Errorf("%s: %d cores in use after MapLocal returned", name, n)
		}
	}
}
