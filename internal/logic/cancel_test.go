package logic

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestFirstFailureCancelledBeforeStart: an already-cancelled context
// evaluates no units at all, sequentially or in parallel.
func TestFirstFailureCancelledBeforeStart(t *testing.T) {
	withProcs(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 4} {
		var calls atomic.Int64
		idx, res := FirstFailure(ctx, 10_000, par, func(i int) (int, bool) {
			calls.Add(1)
			return i, true
		})
		if idx != -1 || res != 0 {
			t.Errorf("par %d: cancelled FirstFailure = (%d, %d), want (-1, 0)", par, idx, res)
		}
		if got := calls.Load(); got != 0 {
			t.Errorf("par %d: cancelled run still evaluated %d units", par, got)
		}
	}
}

// TestFirstFailureCancelPromptness: cancelling mid-run stops the pool
// within the documented bound — at most FailureChunk further checks per
// worker after the cancellation is observable.
func TestFirstFailureCancelPromptness(t *testing.T) {
	withProcs(t, 4)
	const n = 1 << 20 // far more units than any worker should touch
	for _, par := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var after atomic.Int64
		var cancelled atomic.Bool
		const cancelAt = 100
		idx, _ := FirstFailure(ctx, n, par, func(i int) (int, bool) {
			if cancelled.Load() {
				after.Add(1)
			}
			if i == cancelAt {
				// Count from the moment cancel returns: checks other
				// workers start while cancel is still running precede
				// the cancellation being observable.
				cancel()
				cancelled.Store(true)
			}
			return 0, true
		})
		cancel()
		if idx != -1 {
			t.Errorf("par %d: no unit fails, got index %d", par, idx)
		}
		bound := int64(workers(par, n) * FailureChunk)
		if got := after.Load(); got > bound {
			t.Errorf("par %d: %d checks ran after cancellation, bound is %d", par, got, bound)
		}
	}
}

// TestFirstFailureCancelKeepsBestFailure: a failure recorded before the
// cancellation is still reported, and it is a genuine failing unit — a
// cancelled run returns partial results, not fabricated ones.
func TestFirstFailureCancelKeepsBestFailure(t *testing.T) {
	withProcs(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const failAt = 5
	idx, res := FirstFailure(ctx, 1<<20, 4, func(i int) (string, bool) {
		if i == failAt {
			cancel() // cancel as soon as the failure is found
			return "boom", false
		}
		return "", true
	})
	if idx != failAt || res != "boom" {
		t.Errorf("cancelled-after-failure FirstFailure = (%d, %q), want (%d, %q)", idx, res, failAt, "boom")
	}
	if ctx.Err() == nil {
		t.Error("context should report cancellation")
	}
}

// TestFirstFailureCancelNoGoroutineLeak: a cancelled parallel run leaves
// no workers behind. FirstFailure joins its pool before returning, so
// after a settling period the goroutine count is back to the baseline.
func TestFirstFailureCancelNoGoroutineLeak(t *testing.T) {
	withProcs(t, 4)
	baseline := runtime.NumGoroutine()
	for trial := 0; trial < 20; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		FirstFailure(ctx, 1<<20, 4, func(i int) (int, bool) {
			if i == 50 {
				cancel()
			}
			return 0, true
		})
		cancel()
	}
	// The pools are joined synchronously; allow the runtime a moment to
	// retire exited goroutines before comparing counts.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
