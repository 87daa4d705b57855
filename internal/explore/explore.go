// Package explore is the one state-space explorer behind the monitor,
// CSP and ADA simulators and the distributed database update. Walk runs
// a depth-first search over a simulator's schedules with a partial-order
// reduction: a transition that commutes with every other enabled
// transition runs eagerly, without branching, and only semantically
// distinct choices branch. Terminal states are deduplicated as partial
// orders, so the caller sees each computation once, however many
// interleavings reach it.
//
// A simulator supplies only its semantics (a Machine) and records the
// events it generates in a Trace; the walk owns everything else: the
// eager loop, the per-path step bound, the run cap, cancellation, the
// dedup key, the computation build and streaming.
package explore

import (
	"context"
	"fmt"

	"gem/internal/core"
	"gem/internal/obs"
)

// Machine is one state of a simulator, with T its transition type.
type Machine[S, T any] interface {
	// Transitions returns either one eager transition, which commutes
	// with every other enabled transition and is applied in place, or
	// (eager == nil) the transitions to branch over. No transitions at
	// all marks a terminal state.
	Transitions() (eager *T, branches []T)
	// Apply executes one transition in place.
	Apply(T) error
	// Clone returns an independent copy of the state, Trace included.
	Clone() S
	// Trace returns the events recorded on the path to this state.
	Trace() *Trace
}

// Options bounds a walk.
type Options struct {
	// Name prefixes the walk's errors ("monitor", "csp", …).
	Name string
	// MaxRuns caps the number of distinct runs emitted (0 = 100000).
	MaxRuns int
	// MaxSteps caps the transitions on one path, guarding against
	// non-terminating programs (0 = 10000).
	MaxSteps int
	// Ctx cancels the walk: it is polled at every DFS node, and a
	// cancelled context aborts the walk with ctx.Err() after at most one
	// further run. nil means never cancelled.
	Ctx context.Context
}

// Walk explores every schedule from root depth first, in the order
// Transitions lists the branches, so two walks emit the same runs in
// the same order. At each terminal state whose partial order is new it
// builds the computation from the Trace and hands finish's run to
// yield. It reports whether the walk stopped at MaxRuns; if yield
// returns false the walk stops early with truncated == false and a nil
// error.
//
// With obs enabled, each walk adds its node count (explore.states),
// terminal states reached (explore.leaves) and terminal states whose
// partial order was already emitted (explore.dup) to the counters.
func Walk[S Machine[S, T], T, R any](root S, opts Options,
	finish func(S, *core.Computation) R, yield func(R) bool) (truncated bool, err error) {
	if opts.MaxRuns == 0 {
		opts.MaxRuns = 100000
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 10000
	}
	w := &walk[S, T, R]{opts: opts, finish: finish, yield: yield, seen: make(map[string]bool)}
	if opts.Ctx != nil {
		w.done = opts.Ctx.Done()
	}
	w.dfs(root, 0)
	if obs.Enabled() {
		obs.Count("explore.states", w.states)
		obs.Count("explore.leaves", w.leaves)
		obs.Count("explore.dup", w.dups)
	}
	if w.err != nil {
		return false, w.err
	}
	return w.truncated, nil
}

type walk[S Machine[S, T], T, R any] struct {
	opts   Options
	finish func(S, *core.Computation) R
	yield  func(R) bool
	done   <-chan struct{}
	seen   map[string]bool

	emitted            int
	truncated, stopped bool
	err                error

	states, leaves, dups int64
}

func (w *walk[S, T, R]) halted() bool { return w.truncated || w.stopped || w.err != nil }

// dfs explores from m, which is steps transitions from the root.
func (w *walk[S, T, R]) dfs(m S, steps int) {
	w.states++
	select {
	case <-w.done:
		w.err = w.opts.Ctx.Err()
		return
	default:
	}
	for {
		if steps > w.opts.MaxSteps {
			w.err = fmt.Errorf("%s: run exceeded %d steps (non-terminating program?)", w.opts.Name, w.opts.MaxSteps)
			return
		}
		eager, branches := m.Transitions()
		if eager == nil {
			if len(branches) == 0 {
				w.leaf(m)
			}
			for _, t := range branches {
				next := m.Clone()
				if err := next.Apply(t); err != nil {
					w.err = err
					return
				}
				w.dfs(next, steps+1)
				if w.halted() {
					return
				}
			}
			return
		}
		if err := m.Apply(*eager); err != nil {
			w.err = err
			return
		}
		steps++
	}
}

// leaf emits the terminal state m unless its partial order was seen.
func (w *walk[S, T, R]) leaf(m S) {
	w.leaves++
	tr := m.Trace()
	key := tr.key()
	if w.seen[key] {
		w.dups++
		return
	}
	w.seen[key] = true
	comp, err := tr.build()
	if err != nil {
		w.err = fmt.Errorf("%s: generated computation invalid: %w", w.opts.Name, err)
		return
	}
	w.emitted++
	if !w.yield(w.finish(m, comp)) {
		w.stopped = true
		return
	}
	if w.emitted >= w.opts.MaxRuns {
		w.truncated = true
	}
}
