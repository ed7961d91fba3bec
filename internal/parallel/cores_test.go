package parallel

import (
	"runtime"
	"sync"
	"testing"
)

// TestCoresClaim pins the claim rule: a lone caller gets what it wants up to
// GOMAXPROCS, a caller that finds the cores taken gets exactly one and is
// never made to wait, a forced registration counts whatever else runs, and
// releasing everything returns the count to zero.
func TestCoresClaim(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if n := CoresInUse(); n != 0 {
		t.Fatalf("%d cores in use before the test", n)
	}
	if got := ClaimCores(1); got != 1 {
		t.Errorf("ClaimCores(1) alone = %d", got)
	}
	ReleaseCores(1)
	got := ClaimCores(procs + 5)
	if got != procs {
		t.Errorf("ClaimCores(%d) alone = %d, want GOMAXPROCS %d", procs+5, got, procs)
	}
	if late := ClaimCores(4); late != 1 {
		t.Errorf("ClaimCores(4) with every core taken = %d, want 1", late)
	}
	UseCores(3)
	if n, want := CoresInUse(), got+1+3; n != want {
		t.Errorf("%d cores in use, want %d", n, want)
	}
	ReleaseCores(got + 1 + 3)
	if n := CoresInUse(); n != 0 {
		t.Errorf("%d cores in use after releasing every claim", n)
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
				n := ClaimCores(want)
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
