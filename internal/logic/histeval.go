package logic

import (
	"gem/internal/core"
	"gem/internal/history"
	"gem/internal/order"
)

// This file evaluates immediate formulas over a computation's whole
// history lattice at once. An immediate assertion is a predicate on one
// history (Section 7), so its meaning over the lattice is the set of
// histories where it holds: a bitset indexed like Lattice.Histories.
// Histories are the ideals of the temporal order, so occurred(e) is just
// a column — the histories containing e — and the rest of the language
// is set algebra over such columns:
//
//	occurred(x)             the occurrence column of x's event, built on
//	                        first use and owned by the evaluation
//	¬, ∧, ∨, →, ≡           word-wide complement, ∩, ∪ over the operands
//	∀ / ∃ (and -in, thread)  ∩ / ∪ of the body's sets, one per binding;
//	                        the fold stops once the result is empty (∀)
//	                        or full (∃)
//	∃! / at-most-one        once/twice sets: once ∖ twice and ¬twice
//	structural subformulas  (no history predicate) one Eval per binding,
//	                        all histories or none
//	new, potential, at,     one Eval per history at the leaf, with the
//	CountDiff, FIFOValues   binding already in place
//
// Each quantifier binds every domain element once, instead of once per
// history as a per-history tree walk does. The □-invariant reduction
// (holdsOnHistories) and the lattice engine's immediate leaves both use
// it; Formula.Eval stays the independent per-history definition.

// histEval evaluates immediate formulas to satisfaction bitsets over the
// histories of one computation: bit i of a result is set iff the formula
// holds at hs[i]. It is single-goroutine, like the check that owns it.
type histEval struct {
	hs   []history.History
	cols []order.Bitset // cols[e] = histories containing event e; zero until first use
	free []order.Bitset // scratch pool, sized len(hs) each
}

func newHistEval(c *core.Computation) histEval {
	return histEval{
		hs:   history.Shared(c).Histories(),
		cols: make([]order.Bitset, c.NumEvents()),
	}
}

// get hands out an empty scratch bitset, reusing a pooled one when
// available.
func (ev *histEval) get() order.Bitset {
	if n := len(ev.free); n > 0 {
		b := ev.free[n-1]
		ev.free = ev.free[:n-1]
		b.Reset()
		return b
	}
	return order.NewBitset(len(ev.hs))
}

// put returns scratch bitsets to the pool.
func (ev *histEval) put(bs ...order.Bitset) { ev.free = append(ev.free, bs...) }

// column returns the histories containing the event. The column is
// shared: callers copy it before modifying.
func (ev *histEval) column(id core.EventID) order.Bitset {
	if col := ev.cols[id]; col.Cap() > 0 {
		return col
	}
	col := order.NewBitset(len(ev.hs))
	for i, h := range ev.hs {
		if h.Has(id) {
			col.Set(i)
		}
	}
	ev.cols[id] = col
	return col
}

// sat returns the histories at which the immediate formula f holds under
// env's bindings, as a pool bitset the caller owns. env is not modified.
func (ev *histEval) sat(f Formula, env *Env) order.Bitset {
	own := *env
	return ev.holds(f, &own)
}

// holds is sat on a private environment, whose current history it moves
// freely.
func (ev *histEval) holds(f Formula, env *Env) order.Bitset {
	if !HasHistoryPredicate(f) {
		// Structural: one verdict for the whole computation.
		out := ev.get()
		env.H = ev.hs[0]
		if f.Eval(env) {
			out.Fill()
		}
		return out
	}
	switch g := f.(type) {
	case Occurred:
		out := ev.get()
		out.CopyFrom(ev.column(mustEvent(env, g.Var)))
		return out
	case Not:
		out := ev.holds(g.F, env)
		out.FlipAll()
		return out
	case And:
		out := ev.get()
		out.Fill()
		for _, sub := range g {
			if !ev.fold(out, sub, env, true) {
				break
			}
		}
		return out
	case Or:
		out := ev.get()
		for _, sub := range g {
			if !ev.fold(out, sub, env, false) {
				break
			}
		}
		return out
	case Implies:
		out := ev.holds(g.If, env)
		out.FlipAll()
		if !full(out) {
			ev.fold(out, g.Then, env, false)
		}
		return out
	case Iff:
		a, b, diff := ev.holds(g.A, env), ev.holds(g.B, env), ev.get()
		diff.CopyFrom(a)
		diff.AndNotWith(b)
		b.AndNotWith(a)
		b.OrWith(diff)
		b.FlipAll()
		ev.put(a, diff)
		return b
	case ForAll, ForAllIn, ForAllThread:
		out := ev.get()
		out.Fill()
		body, envs := quantEnvs(env, f)
		for _, be := range envs {
			if !ev.fold(out, body, be, true) {
				break
			}
		}
		return out
	case Exists, ExistsThread:
		out := ev.get()
		body, envs := quantEnvs(env, f)
		for _, be := range envs {
			if !ev.fold(out, body, be, false) {
				break
			}
		}
		return out
	case ExistsUnique, ExistsUniqueIn, AtMostOne:
		// once: some binding holds; twice: at least two do.
		once, twice, both := ev.get(), ev.get(), ev.get()
		body, envs := quantEnvs(env, f)
		for _, be := range envs {
			b := ev.holds(body, be)
			both.CopyFrom(b)
			both.AndWith(once)
			twice.OrWith(both)
			once.OrWith(b)
			ev.put(b)
			if full(twice) {
				break
			}
		}
		ev.put(both)
		if _, ok := f.(AtMostOne); ok {
			twice.FlipAll()
			ev.put(once)
			return twice
		}
		once.AndNotWith(twice)
		ev.put(twice)
		return once
	default:
		// new, potential, at, CountDiff, FIFOValues: a history atom read
		// per history.
		out := ev.get()
		for i, h := range ev.hs {
			env.H = h
			if f.Eval(env) {
				out.Set(i)
			}
		}
		return out
	}
}

// fold intersects (conj) or unites (!conj) acc with f's satisfaction set
// and reports whether a further operand could still change acc: false
// once acc is empty under ∩ or full under ∪. Callers then skip the
// remaining operands, as Eval's short circuit skips them at every
// history.
func (ev *histEval) fold(acc order.Bitset, f Formula, env *Env, conj bool) bool {
	b := ev.holds(f, env)
	if conj {
		acc.AndWith(b)
	} else {
		acc.OrWith(b)
	}
	ev.put(b)
	return !(conj && acc.Empty() || !conj && full(acc))
}

func full(b order.Bitset) bool { return b.Count() == b.Cap() }
