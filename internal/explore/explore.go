// Package explore is the one state-space explorer behind the monitor,
// CSP and ADA simulators and the distributed database update. Walk runs
// a depth-first search over a simulator's schedules with two
// partial-order reductions. A transition that commutes with every other
// enabled transition runs eagerly, without branching. Among the
// branches, sleep sets skip the interleavings that differ from an
// explored one only in the order of independent transitions, so each
// computation (a Mazurkiewicz trace of the schedule) is walked once, not
// once per interleaving. Terminal states are still deduplicated as
// partial orders, so the caller sees each computation once even where
// two dependent orders happen to build the same partial order.
//
// A simulator supplies only its semantics (a Machine) and records the
// events it generates in a Trace; the walk owns everything else: the
// eager loop, the sleep sets, the per-path step bound, the run cap,
// cancellation, the dedup key, the computation build and streaming.
package explore

import (
	"context"
	"fmt"
	"slices"

	"gem/internal/core"
	"gem/internal/obs"
)

// Machine is one state of a simulator, with T its transition type. T is
// compared with ==: two values are the same transition when they are
// equal, in the state where they were listed and in every state reached
// from it by transitions independent of them.
type Machine[S any, T comparable] interface {
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
	// Independent reports whether a and b, both enabled in this state,
	// commute: running them in either order leads to the same state and
	// the same partial order, and neither disables the other. Returning
	// false is always safe; it only costs reduction.
	Independent(a, b T) bool
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

// Walk explores the schedules from root depth first, in the order
// Transitions lists the branches, so two walks emit the same runs in
// the same order. Each branching node carries a sleep set: the
// transitions already explored from an ancestor or an earlier sibling
// that commute with every step taken since. A branch in the sleep set
// is skipped, because an explored schedule already covers it; a child
// inherits the sleepers and earlier siblings independent of the branch
// it takes; eager steps leave the set as it is, since they commute with
// everything. A node whose branches are all asleep is pruned: its
// schedules are explored elsewhere, so it is not a terminal state.
// Of the schedules that differ only in the order of independent
// transitions the walk reaches exactly the first in DFS order, so it
// emits the same runs as an unreduced walk, in the same order.
//
// At each terminal state whose partial order is new Walk builds the
// computation from the Trace and hands finish's run to yield. It
// reports whether the walk stopped at MaxRuns; if yield returns false
// the walk stops early with truncated == false and a nil error.
//
// With obs enabled, each walk adds its node count (explore.states),
// terminal states reached (explore.leaves) and terminal states whose
// partial order was already emitted (explore.dup) to the counters.
func Walk[S Machine[S, T], T comparable, R any](root S, opts Options,
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
	w.dfs(root, 0, nil)
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

type walk[S Machine[S, T], T comparable, R any] struct {
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

// dfs explores from m, which is steps transitions from the root, with
// sleep the transitions whose schedules are explored elsewhere.
func (w *walk[S, T, R]) dfs(m S, steps int, sleep []T) {
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
			} else {
				w.branch(m, steps, sleep, branches)
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

// branch explores each branch of m not in sleep. The child of branch t
// sleeps on the members of sleep and the branches explored before t
// that are independent of t.
func (w *walk[S, T, R]) branch(m S, steps int, sleep, branches []T) {
	for i, t := range branches {
		if slices.Contains(sleep, t) {
			continue
		}
		var child []T
		for _, s := range sleep {
			if m.Independent(s, t) {
				child = append(child, s)
			}
		}
		for _, s := range branches[:i] {
			if !slices.Contains(sleep, s) && m.Independent(s, t) {
				child = append(child, s)
			}
		}
		next := m.Clone()
		if err := next.Apply(t); err != nil {
			w.err = err
			return
		}
		w.dfs(next, steps+1, child)
		if w.halted() {
			return
		}
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
