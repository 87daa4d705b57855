package logic

import (
	"runtime"
	"sync"
	"testing"

	"gem/internal/core"
	"gem/internal/history"
)

// withProcs raises GOMAXPROCS for the duration of a test so the parallel
// code paths are exercised even on a single-core host (Workers caps the
// pool at GOMAXPROCS).
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestWorkers(t *testing.T) {
	withProcs(t, 4)
	tests := []struct{ par, n, want int }{
		{0, 10, 1},
		{1, 10, 1},
		{4, 10, 4},
		{4, 3, 3},
		{8, 10, 4}, // capped at GOMAXPROCS
		{4, 1, 1},
		{-1, 10, 1},
	}
	for _, tt := range tests {
		if got := Workers(tt.par, tt.n); got != tt.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tt.par, tt.n, got, tt.want)
		}
	}
}

// TestFirstFailureDeterminism: the parallel pool reports the same lowest
// failing index and result as the sequential loop, and every unit below
// that index is evaluated (never skipped).
func TestFirstFailureDeterminism(t *testing.T) {
	withProcs(t, 4)
	fails := map[int]bool{7: true, 23: true, 41: true}
	const n = 50
	run := func(par int) (int, string, map[int]bool) {
		var mu sync.Mutex
		evaluated := make(map[int]bool)
		idx, res := FirstFailure(nil, n, par, func(i int) (string, bool) {
			mu.Lock()
			evaluated[i] = true
			mu.Unlock()
			if fails[i] {
				return "failed-" + string(rune('0'+i/10)) + string(rune('0'+i%10)), false
			}
			return "", true
		})
		return idx, res, evaluated
	}
	seqIdx, seqRes, _ := run(1)
	if seqIdx != 7 || seqRes != "failed-07" {
		t.Fatalf("sequential = (%d, %q), want (7, failed-07)", seqIdx, seqRes)
	}
	for trial := 0; trial < 10; trial++ {
		parIdx, parRes, evaluated := run(4)
		if parIdx != seqIdx || parRes != seqRes {
			t.Fatalf("parallel = (%d, %q), sequential = (%d, %q)", parIdx, parRes, seqIdx, seqRes)
		}
		for i := 0; i < seqIdx; i++ {
			if !evaluated[i] {
				t.Fatalf("unit %d below the failing index was skipped", i)
			}
		}
	}
}

func TestFirstFailureAllPass(t *testing.T) {
	withProcs(t, 4)
	for _, par := range []int{1, 4} {
		idx, res := FirstFailure(nil, 100, par, func(i int) (int, bool) { return i, true })
		if idx != -1 || res != 0 {
			t.Errorf("par %d: all-pass FirstFailure = (%d, %d), want (-1, 0)", par, idx, res)
		}
	}
}

func TestHoldsEveryIndices(t *testing.T) {
	withProcs(t, 4)
	c1, _ := diamondComp(t)
	c2, _ := diamondComp(t)
	fs := []Formula{TrueF{}, FalseF{}}
	for _, par := range []int{1, 4} {
		ci, fi, cx := HoldsEvery(fs, []*core.Computation{c1, c2}, CheckOptions{Parallelism: par})
		if ci != 0 || fi != 1 || cx == nil {
			t.Errorf("par %d: HoldsEvery = (%d, %d, %v), want (0, 1, cx)", par, ci, fi, cx)
		}
	}
	if ci, fi, cx := HoldsEvery(fs, nil, CheckOptions{}); ci != -1 || fi != -1 || cx != nil {
		t.Errorf("empty comps: HoldsEvery = (%d, %d, %v)", ci, fi, cx)
	}
}

// TestLatticeBuiltOncePerCheck: checking several □ restrictions against
// one computation — both the □-invariant reduction and the history-pairs
// reduction — enumerates the history lattice exactly once.
func TestLatticeBuiltOncePerCheck(t *testing.T) {
	c, _ := diamondComp(t)
	inv := Box{F: Implies{
		If:   Exists{Var: "x", Ref: core.Ref("EL4", "E"), Body: Occurred{Var: "x"}},
		Then: Exists{Var: "y", Ref: core.Ref("EL2", "E"), Body: Occurred{Var: "y"}},
	}}
	pairs := Box{F: Implies{
		If:   Exists{Var: "x", Ref: core.Ref("EL1", "E"), Body: Occurred{Var: "x"}},
		Then: Box{F: Exists{Var: "y", Ref: core.Ref("EL1", "E"), Body: Occurred{Var: "y"}}},
	}}
	before := history.LatticeBuilds()
	if idx, cx := HoldsAll([]Formula{inv, pairs, inv, pairs}, c, CheckOptions{}); idx >= 0 {
		t.Fatalf("restrictions should hold, failed at %d: %v", idx, cx.Error())
	}
	if d := history.LatticeBuilds() - before; d != 1 {
		t.Errorf("lattice enumerated %d times across 4 restrictions, want 1", d)
	}
}
