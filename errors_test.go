package alltoall_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"alltoall"
)

// TestErrMaxTime checks the exceeded-time sentinel threads out of both
// engines through the public API.
func TestErrMaxTime(t *testing.T) {
	for _, shards := range []int{1, 4} {
		_, err := alltoall.Run(context.Background(), alltoall.Request{Strategy: alltoall.AR,
			Shape: alltoall.NewTorus(4, 4, 2), MsgBytes: 1024, MaxTime: 50, Shards: shards})
		if !errors.Is(err, alltoall.ErrMaxTime) {
			t.Errorf("shards=%d: err = %v, want wrapping ErrMaxTime", shards, err)
		}
	}
}

// TestErrCanceled cancels a long run mid-flight on both engines.
func TestErrCanceled(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, shards := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		// Big enough that 30ms of wall time cannot finish it.
		_, err := alltoall.Run(ctx, alltoall.Request{Strategy: alltoall.AR,
			Shape: alltoall.NewTorus(8, 8, 8), MsgBytes: 2048, Shards: shards})
		cancel()
		if !errors.Is(err, alltoall.ErrCanceled) {
			t.Errorf("shards=%d: err = %v, want wrapping ErrCanceled", shards, err)
		}
	}
}

func TestErrBadShape(t *testing.T) {
	if _, err := alltoall.ParseShape("0x4"); !errors.Is(err, alltoall.ErrBadShape) {
		t.Errorf("ParseShape err = %v, want wrapping ErrBadShape", err)
	}
	req := alltoall.Request{Strategy: alltoall.AR, MsgBytes: 64} // zero shape
	if _, err := alltoall.Run(context.Background(), req); !errors.Is(err, alltoall.ErrBadShape) {
		t.Errorf("Run err = %v, want wrapping ErrBadShape", err)
	}
	if err := req.Validate(); !errors.Is(err, alltoall.ErrBadShape) {
		t.Errorf("Request.Validate err = %v, want wrapping ErrBadShape", err)
	}
}

// TestErrQueueFull checks the re-exported sentinel matches what the serving
// layer wraps (the HTTP 429 path is covered in internal/serve).
func TestErrQueueFull(t *testing.T) {
	wrapped := fmt.Errorf("submit: %w", alltoall.ErrQueueFull)
	if !errors.Is(wrapped, alltoall.ErrQueueFull) {
		t.Error("ErrQueueFull does not survive wrapping")
	}
}
