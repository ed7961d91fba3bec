package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-2); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-2) = %d", got)
	}
}

// noLocal is the per-worker state of a pool that needs none.
func noLocal() struct{} { return struct{}{} }

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	got, err := MapLocal(context.Background(), 8, items, noLocal, func(_ context.Context, _ struct{}, i, item int) (int, error) {
		if i != item {
			t.Errorf("index %d paired with item %d", i, item)
		}
		// Vary completion order so ordering cannot come for free.
		time.Sleep(time.Duration(item%3) * time.Microsecond)
		return item * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r != 2*i {
			t.Fatalf("result[%d] = %d, want %d", i, r, 2*i)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := MapLocal(context.Background(), 4, nil, noLocal, func(_ context.Context, _ struct{}, i, item int) (int, error) {
		t.Fatal("fn called for empty input")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty map: %v, %v", got, err)
	}
}

func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	items := make([]int, 64)
	_, err := MapLocal(context.Background(), 2, items, noLocal, func(_ context.Context, _ struct{}, i, _ int) (int, error) {
		calls.Add(1)
		if i == 3 {
			return 0, boom
		}
		// Slow the successes down so the error lands long before the pool
		// could have drained all 64 items.
		time.Sleep(200 * time.Microsecond)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the item error", err)
	}
	if !strings.Contains(err.Error(), "item 3") {
		t.Errorf("error %q does not name the failing item", err)
	}
	// Cancellation must stop workers from draining the whole input.
	if n := calls.Load(); n == int64(len(items)) {
		t.Errorf("all %d items ran despite early error", n)
	}
}

func TestMapMultipleErrors(t *testing.T) {
	// Two items fail "simultaneously" (before either can cancel the other):
	// both must be reported, in index order.
	var gate atomic.Int64
	_, err := MapLocal(context.Background(), 2, []int{0, 1}, noLocal, func(_ context.Context, _ struct{}, i, _ int) (int, error) {
		gate.Add(1)
		for gate.Load() < 2 {
			time.Sleep(time.Microsecond)
		}
		return 0, fmt.Errorf("fail-%d", i)
	})
	if err == nil {
		t.Fatal("no error reported")
	}
	for _, want := range []string{"fail-0", "fail-1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestMapContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := make([]int, 16)
	var calls atomic.Int64
	_, err := MapLocal(ctx, 4, items, noLocal, func(_ context.Context, _ struct{}, i, _ int) (int, error) {
		calls.Add(1)
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Errorf("%d items ran under a cancelled context", calls.Load())
	}
}

func TestMapLocalPerWorkerState(t *testing.T) {
	var made atomic.Int64
	const workers = 4
	items := make([]int, 256)
	type scratch struct{ uses int }
	var totalUses atomic.Int64
	_, err := MapLocal(context.Background(), workers, items,
		func() *scratch {
			made.Add(1)
			return &scratch{}
		},
		func(_ context.Context, s *scratch, i, _ int) (int, error) {
			s.uses++ // would race if a scratch were shared between workers
			totalUses.Add(1)
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if made.Load() > workers {
		t.Errorf("%d locals made for %d workers", made.Load(), workers)
	}
	if totalUses.Load() != int64(len(items)) {
		t.Errorf("fn ran %d times, want %d", totalUses.Load(), len(items))
	}
}

func TestMapWorkerClamp(t *testing.T) {
	// More workers than items must not spawn idle goroutines that call mk.
	var made atomic.Int64
	_, err := MapLocal(context.Background(), 64, []int{1, 2},
		func() int { made.Add(1); return 0 },
		func(_ context.Context, _ int, i, _ int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if made.Load() > 2 {
		t.Errorf("made %d locals for 2 items", made.Load())
	}
}

// BenchmarkMapOverhead measures the per-item pool overhead with a trivial
// fn; simulation work items are milliseconds, so anything in the tens of
// nanoseconds disappears.
func BenchmarkMapOverhead(b *testing.B) {
	b.ReportAllocs()
	items := make([]int, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := MapLocal(context.Background(), 0, items, noLocal, func(_ context.Context, _ struct{}, i, _ int) (int, error) {
			return i, nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*float64(len(items))/b.Elapsed().Seconds(), "items/s")
}
