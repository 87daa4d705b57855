// Package logic implements GEM restrictions: first-order formulae over GEM
// predicates (occurred, @, ⊳, ⇒ₑ, ⇒, parameter equality, thread
// membership), closed under boolean connectives and bounded quantifiers,
// extended with the temporal operators □ (henceforth) and ◇ (eventually)
// interpreted over valid history sequences as in Section 7 of the paper.
//
// Immediate assertions are evaluated against a history; temporal assertions
// against a position in a history sequence (S ⊨ □p iff every tail satisfies
// p; S ⊨ p for immediate p iff the first history does).
package logic

import (
	"fmt"
	"strings"

	"gem/internal/core"
	"gem/internal/history"
)

// Env is an evaluation environment: the computation, the current history
// (for immediate assertions), optionally the enclosing history sequence and
// position (for temporal operators), and variable bindings.
type Env struct {
	C    *core.Computation
	Seq  history.Sequence // nil when evaluating outside a sequence
	Idx  int              // position within Seq
	H    history.History  // current history
	vars *binding[core.EventID]
	tids *binding[string] // thread-variable bindings
}

// binding is one link of an environment's bindings, innermost first. A
// child environment shares its parent's chain, so binding a variable
// allocates one link instead of copying every enclosing binding.
type binding[T any] struct {
	name string
	val  T
	next *binding[T]
}

// lookup returns the innermost binding of name.
func (b *binding[T]) lookup(name string) (T, bool) {
	for ; b != nil; b = b.next {
		if b.name == name {
			return b.val, true
		}
	}
	var zero T
	return zero, false
}

// NewEnv returns an environment for evaluating immediate assertions at
// history h.
func NewEnv(h history.History) *Env {
	return &Env{C: h.Computation(), H: h}
}

// NewSeqEnv returns an environment positioned at s[idx].
func NewSeqEnv(s history.Sequence, idx int) *Env {
	return &Env{C: s[idx].Computation(), Seq: s, Idx: idx, H: s[idx]}
}

// Lookup returns the event bound to an event variable.
func (e *Env) Lookup(name string) (core.EventID, bool) {
	return e.vars.lookup(name)
}

// bind returns a child environment with an additional event binding.
func (e *Env) bind(name string, id core.EventID) *Env {
	child := *e
	child.vars = &binding[core.EventID]{name, id, e.vars}
	return &child
}

// bindThread returns a child environment with an additional thread binding.
func (e *Env) bindThread(name, tid string) *Env {
	child := *e
	child.tids = &binding[string]{name, tid, e.tids}
	return &child
}

// at returns a sibling environment moved to position idx of the sequence.
func (e *Env) at(idx int) *Env {
	child := *e
	child.Idx = idx
	child.H = e.Seq[idx]
	return &child
}

// Bindings renders the current variable bindings for diagnostics.
func (e *Env) Bindings() string {
	var parts []string
	seen := map[string]bool{}
	for b := e.vars; b != nil; b = b.next {
		if !seen[b.name] {
			seen[b.name] = true
			parts = append(parts, fmt.Sprintf("%s=%s", b.name, e.C.Event(b.val).Name()))
		}
	}
	seen = map[string]bool{}
	for b := e.tids; b != nil; b = b.next {
		if !seen[b.name] {
			seen[b.name] = true
			parts = append(parts, fmt.Sprintf("%s=%s", b.name, b.val))
		}
	}
	sortStrings(parts)
	return strings.Join(parts, ", ")
}

// Formula is a GEM restriction or sub-formula.
type Formula interface {
	Eval(env *Env) bool
	String() string
}

// mustEvent resolves an event variable, panicking on unbound names — an
// unbound variable is a bug in the restriction, not a runtime condition.
func mustEvent(env *Env, name string) core.EventID {
	id, ok := env.vars.lookup(name)
	if !ok {
		panic(fmt.Sprintf("logic: unbound event variable %q", name))
	}
	return id
}

func mustThread(env *Env, name string) string {
	tid, ok := env.tids.lookup(name)
	if !ok {
		panic(fmt.Sprintf("logic: unbound thread variable %q", name))
	}
	return tid
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
