package explore

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gem/internal/core"
	"gem/internal/obs"
)

// toy is a machine of actors that each run a fixed list of steps:
//
//	"own"  an event at the actor's own element; commutes, runs eagerly
//	"ext"  an event at the actor's own element e<a>, listed as a branch
//	"x"    an event at the shared element x carrying the actor's index
//	"x="   an event at x with no parameters, alike for every actor
//	"loop" an own event that never advances (a non-terminating actor)
//	"self" an event that enables itself (an invalid computation)
//	"fail" a step whose Apply fails
//
// Steps of different actors are independent when either is an ext
// step; with dependent set, no two steps are.
type toy struct {
	prog      [][]string
	pc        []int
	trace     Trace
	dependent bool
}

func newToy(prog ...[]string) *toy {
	return &toy{prog: prog, pc: make([]int, len(prog)), trace: NewTrace(len(prog))}
}

func (m *toy) Transitions() (*int, []int) {
	var branches []int
	for a, steps := range m.prog {
		if m.pc[a] == len(steps) {
			continue
		}
		if s := steps[m.pc[a]]; s == "own" || s == "loop" {
			return &a, nil
		}
		branches = append(branches, a)
	}
	return nil, branches
}

func (m *toy) Apply(a int) error {
	step := m.prog[a][m.pc[a]]
	if step != "loop" {
		m.pc[a]++
	}
	switch step {
	case "own", "loop":
		m.trace.Emit(a, fmt.Sprintf("a%d", a), "Op", nil)
	case "ext":
		m.trace.Emit(a, fmt.Sprintf("e%d", a), "Op", nil)
	case "x":
		m.trace.Emit(a, "x", "Write", core.Params{"a": core.Int(int64(a))})
	case "x=":
		m.trace.Emit(a, "x", "Write", nil)
	case "self":
		m.trace.Emit(a, "x", "Write", nil, len(m.trace.events))
	case "fail":
		return errors.New("toy: step failed")
	}
	return nil
}

func (m *toy) Clone() *toy {
	return &toy{prog: m.prog, pc: append([]int(nil), m.pc...), trace: m.trace.Clone(), dependent: m.dependent}
}

func (m *toy) Independent(a, b int) bool {
	return !m.dependent && a != b && (m.prog[a][m.pc[a]] == "ext" || m.prog[b][m.pc[b]] == "ext")
}

func (m *toy) Trace() *Trace { return &m.trace }

// walkToy walks m and returns the fingerprints of the emitted runs in
// order; stopAfter > 0 makes yield return false at that run.
func walkToy(m *toy, opts Options, stopAfter int) ([]string, bool, error) {
	var fps []string
	trunc, err := Walk[*toy, int](m, opts,
		func(_ *toy, c *core.Computation) string { return core.Fingerprint(c) },
		func(fp string) bool {
			fps = append(fps, fp)
			return len(fps) != stopAfter
		})
	return fps, trunc, err
}

func TestWalkDedupsInterleavings(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	// Both orders of two alike writes are one partial order.
	fps, trunc, err := walkToy(newToy([]string{"x="}, []string{"x="}), Options{}, 0)
	if err != nil || trunc || len(fps) != 1 {
		t.Fatalf("alike writes: %d runs, truncated=%v, err=%v; want 1 run", len(fps), trunc, err)
	}
	c := obs.Snapshot().Counters
	if c["explore.leaves"] != 2 || c["explore.dup"] != 1 || c["explore.states"] != 5 {
		t.Errorf("counters = %v; want 5 states, 2 leaves, 1 dup", c)
	}
	// Writes that name their actor order differently.
	fps, _, err = walkToy(newToy([]string{"x"}, []string{"x"}), Options{}, 0)
	if err != nil || len(fps) != 2 {
		t.Fatalf("distinct writes: %d runs, err=%v; want 2", len(fps), err)
	}
}

func TestWalkDeterministic(t *testing.T) {
	prog := [][]string{{"x", "own", "x"}, {"own", "x"}, {"x", "x"}}
	first, _, err := walkToy(newToy(prog...), Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := walkToy(newToy(prog...), Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) < 2 || !reflect.DeepEqual(first, second) {
		t.Fatalf("two walks emitted %d and %d runs, or in a different order", len(first), len(second))
	}
}

func TestWalkCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fps, trunc, err := walkToy(newToy([]string{"x"}, []string{"x"}), Options{Ctx: ctx}, 0)
	if !errors.Is(err, context.Canceled) || trunc || len(fps) != 0 {
		t.Fatalf("got %d runs, truncated=%v, err=%v; want context.Canceled and no runs", len(fps), trunc, err)
	}
}

func TestWalkMaxSteps(t *testing.T) {
	for name, prog := range map[string][][]string{
		"eager":     {{"own", "loop"}},
		"branching": {{"x", "x", "x", "x"}},
	} {
		_, _, err := walkToy(newToy(prog...), Options{Name: "toy", MaxSteps: 3}, 0)
		if err == nil || !strings.Contains(err.Error(), "toy: run exceeded 3 steps") {
			t.Errorf("%s: err = %v; want the step bound", name, err)
		}
	}
	if _, _, err := walkToy(newToy([]string{"x", "x", "x"}), Options{MaxSteps: 3}, 0); err != nil {
		t.Errorf("a 3-step run under MaxSteps 3: %v", err)
	}
}

func TestWalkMaxRuns(t *testing.T) {
	prog := [][]string{{"x"}, {"x"}, {"x"}} // 3! = 6 distinct orders
	all, trunc, err := walkToy(newToy(prog...), Options{}, 0)
	if err != nil || trunc || len(all) != 6 {
		t.Fatalf("got %d runs, truncated=%v, err=%v; want 6", len(all), trunc, err)
	}
	some, trunc, err := walkToy(newToy(prog...), Options{MaxRuns: 4}, 0)
	if err != nil || !trunc || !reflect.DeepEqual(some, all[:4]) {
		t.Fatalf("MaxRuns 4: got %d runs, truncated=%v, err=%v; want the first 4, truncated", len(some), trunc, err)
	}
}

func TestWalkEarlyStop(t *testing.T) {
	fps, trunc, err := walkToy(newToy([]string{"x"}, []string{"x"}, []string{"x"}), Options{}, 2)
	if err != nil || trunc || len(fps) != 2 {
		t.Fatalf("got %d runs, truncated=%v, err=%v; want 2, not truncated, no error", len(fps), trunc, err)
	}
}

func TestWalkErrorsPropagate(t *testing.T) {
	_, _, err := walkToy(newToy([]string{"self"}), Options{Name: "toy"}, 0)
	if err == nil || !strings.Contains(err.Error(), "toy: generated computation invalid") {
		t.Errorf("invalid computation: err = %v", err)
	}
	_, _, err = walkToy(newToy([]string{"x"}, []string{"fail"}), Options{}, 0)
	if err == nil || !strings.Contains(err.Error(), "toy: step failed") {
		t.Errorf("failing step: err = %v", err)
	}
}

// walkCounters walks m with obs enabled and returns the emitted
// fingerprints and the explore counters.
func walkCounters(t *testing.T, m *toy) ([]string, map[string]int64) {
	t.Helper()
	obs.Enable()
	defer obs.Disable()
	fps, _, err := walkToy(m, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return fps, obs.Snapshot().Counters
}

func TestWalkSleepSetsIndependentActors(t *testing.T) {
	// k actors of n independent branching steps are one computation.
	// Sleep sets walk it once: 1 leaf. The states are the prefixes that
	// run the actors in index order, (n+1)^k of them; the unreduced walk
	// reaches all (kn)!/(n!)^k interleavings.
	for _, c := range []struct{ k, n, states, interleavings int64 }{
		{1, 3, 4, 1},
		{2, 1, 4, 2},
		{2, 2, 9, 6},
		{3, 2, 27, 90},
	} {
		prog := make([][]string, c.k)
		for a := range prog {
			for i := int64(0); i < c.n; i++ {
				prog[a] = append(prog[a], "ext")
			}
		}
		fps, got := walkCounters(t, newToy(prog...))
		if len(fps) != 1 || got["explore.leaves"] != 1 || got["explore.dup"] != 0 || got["explore.states"] != c.states {
			t.Errorf("k=%d n=%d: %d runs, counters %v; want 1 run, 1 leaf, 0 dup, %d states", c.k, c.n, len(fps), got, c.states)
		}
		full := newToy(prog...)
		full.dependent = true
		fullFps, got := walkCounters(t, full)
		if !reflect.DeepEqual(fps, fullFps) || got["explore.leaves"] != c.interleavings {
			t.Errorf("k=%d n=%d unreduced: %d runs, %d leaves; want the same run, %d leaves",
				c.k, c.n, len(fullFps), got["explore.leaves"], c.interleavings)
		}
	}
}

func TestWalkSleepSetsPruneAllAsleep(t *testing.T) {
	// Root branches a0 then a1. a1's child sleeps on a0 and has no other
	// branch: it is pruned, not a terminal state.
	_, got := walkCounters(t, newToy([]string{"ext"}, []string{"ext"}))
	if got["explore.states"] != 4 || got["explore.leaves"] != 1 || got["explore.dup"] != 0 {
		t.Errorf("counters = %v; want 4 states, 1 leaf, 0 dup", got)
	}
}

func TestWalkSleepSetsKeepDependentOrders(t *testing.T) {
	// Dependent steps keep both orders, and the reduced walk emits what
	// the unreduced one emits, in the same order.
	for _, prog := range [][][]string{
		{{"x"}, {"x"}},
		{{"ext", "x"}, {"x", "ext"}},
		{{"x", "ext", "x"}, {"ext", "x"}, {"ext", "ext"}},
		{{"ext", "own", "x"}, {"own", "x", "ext"}, {"x="}},
	} {
		fps, _ := walkCounters(t, newToy(prog...))
		full := newToy(prog...)
		full.dependent = true
		fullFps, _ := walkCounters(t, full)
		if len(fps) < 2 || !reflect.DeepEqual(fps, fullFps) {
			t.Errorf("%v: reduced walk emitted %d runs, unreduced %d, or in another order", prog, len(fps), len(fullFps))
		}
	}
}
