package logic

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// workers returns the effective worker count for n independent units at
// the requested parallelism: 0 and 1 mean sequential, and the pool is
// never larger than the number of units or useful beyond GOMAXPROCS for
// CPU-bound checking.
func workers(par, n int) int {
	if par <= 1 || n <= 1 {
		return 1
	}
	if max := runtime.GOMAXPROCS(0); par > max {
		par = max
	}
	if par > n {
		par = n
	}
	if par < 1 {
		par = 1
	}
	return par
}

// FailureChunk is the number of units a FirstFailure worker claims per
// dispatch. Claiming runs of indices instead of single items keeps the
// shared counter off the hot path: per-item atomic increments put a
// contended cache line between every pair of cheap checks, which is what
// made -j4 slower than -j1 on the E4/E7 workloads. It also bounds the
// cancellation latency: workers poll the context once per claimed chunk,
// so a cancelled run stops within at most FailureChunk further checks
// per worker.
const FailureChunk = 16

// Done returns ctx's done channel, tolerating a nil context (the
// engines treat nil as context.Background(): never cancelled). Polling
// a nil channel in a select with a default case is free, so callers can
// hold the channel instead of re-checking ctx.
func Done(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// Cancelled reports whether the done channel (from Done) is closed,
// without blocking.
func Cancelled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// FirstFailure evaluates check(i) for i in [0, n) and returns the lowest
// index whose check reports failure (ok == false) together with that
// check's result, or (-1, zero) when every unit passes. With par <= 1 it
// is a plain sequential loop that stops at the first failure; with
// par > 1 workers claim chunks of consecutive units from a shared
// counter, with deterministic first-failure semantics: units above the
// best failing index found so far are skipped, units below it are always
// evaluated, so the reported index and result are identical to the
// sequential run's.
//
// A nil ctx is never cancelled. When ctx is cancelled the run stops
// promptly — within FailureChunk further checks per worker — and
// returns the best failure found so far, or (-1, zero) if none was;
// callers that must distinguish "all passed" from "gave up" consult
// ctx.Err(), exactly like a truncated enumeration.
//
// FirstFailure is the program's one worker pool. A caller that needs
// every unit checked, not just the first failure, returns ok == true
// from check and writes each unit's result into its own index slot.
func FirstFailure[T any](ctx context.Context, n, par int, check func(i int) (T, bool)) (int, T) {
	var zero T
	done := Done(ctx)
	w := workers(par, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			if i%FailureChunk == 0 && Cancelled(done) {
				return -1, zero
			}
			if res, ok := check(i); !ok {
				return i, res
			}
		}
		return -1, zero
	}
	// Chunks small enough that every worker gets several keep the tail
	// balanced when n is not much larger than the pool.
	chunk := FailureChunk
	if c := n / (w * 4); c < chunk {
		chunk = c
	}
	if chunk < 1 {
		chunk = 1
	}
	var (
		next    atomic.Int64
		minFail atomic.Int64
		mu      sync.Mutex
		results = make(map[int]T)
		wg      sync.WaitGroup
	)
	minFail.Store(int64(n))
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if Cancelled(done) {
					return
				}
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				if int64(lo) >= minFail.Load() {
					continue // a lower failure already decides the run
				}
				for i := lo; i < hi; i++ {
					if int64(i) >= minFail.Load() {
						break
					}
					res, ok := check(i)
					if ok {
						continue
					}
					mu.Lock()
					results[i] = res
					mu.Unlock()
					for {
						cur := minFail.Load()
						if int64(i) >= cur || minFail.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	// After cancellation the reported failure is the best one actually
	// found (possibly not the global first), so partial results still
	// carry their evidence.
	if m := int(minFail.Load()); m < n {
		return m, results[m]
	}
	return -1, zero
}
