package traffic_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"alltoall/internal/collective"
	"alltoall/internal/network"
	"alltoall/internal/torus"
)

// TestRunOptsSharded checks pattern runs on the window-parallel engine
// produce the identical result as the serial engine.
func TestRunOptsSharded(t *testing.T) {
	s := torus.New(4, 4, 2)
	serial, err := collective.RunPattern(context.Background(), collective.Shift{Offset: 5},
		collective.Options{Request: collective.Request{Shape: s, MsgBytes: 256, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := collective.RunPattern(context.Background(), collective.Shift{Offset: 5},
		collective.Options{Request: collective.Request{Shape: s, MsgBytes: 256, Seed: 1, Shards: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, sharded) {
		t.Errorf("sharded pattern run diverged:\nserial  %+v\nsharded %+v", serial, sharded)
	}
}

func TestRunOptsPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := collective.RunPattern(ctx, collective.Shift{Offset: 1},
		collective.Options{Request: collective.Request{Shape: torus.New(4, 4, 2), MsgBytes: 64}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// lateCancel is a context that admits the run (Err is nil) but whose Done
// channel is already closed, so the cancellation is seen by the engine.
type lateCancel struct {
	context.Context
	done chan struct{}
}

func (c lateCancel) Done() <-chan struct{} { return c.done }

// TestRunCanceledMidRun drives the engine's cancellation path directly: a
// closed Done channel aborts the simulation with ErrCanceled.
func TestRunCanceledMidRun(t *testing.T) {
	ctx := lateCancel{context.Background(), make(chan struct{})}
	close(ctx.done)
	_, err := collective.RunPattern(ctx, collective.RandomSubset{K: 8, Seed: 3},
		collective.Options{Request: collective.Request{Shape: torus.New(8, 4, 4), MsgBytes: 4096}})
	if !errors.Is(err, network.ErrCanceled) {
		t.Errorf("err = %v, want wrapping network.ErrCanceled", err)
	}
}

func TestRunOptsMaxTime(t *testing.T) {
	for _, shards := range []int{1, 4} {
		_, err := collective.RunPattern(context.Background(), collective.Shift{Offset: 1},
			collective.Options{Request: collective.Request{Shape: torus.New(4, 4, 2), MsgBytes: 4096, MaxTime: 50, Shards: shards}})
		if !errors.Is(err, network.ErrMaxTime) {
			t.Errorf("shards=%d: err = %v, want wrapping network.ErrMaxTime", shards, err)
		}
	}
}
