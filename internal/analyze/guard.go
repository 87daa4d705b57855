package analyze

import (
	"sort"
	"strings"

	"gem/internal/core"
	"gem/internal/logic"
)

// This file implements the emptiness-guard calculus: a syntactic analysis
// that, for a restriction formula f, finds sets of event classes and
// thread types ("guards") whose absence from a computation decides f
// outright — in every environment, at every history and sequence
// position. The soundness argument rests on one fact about the dynamic
// semantics: quantifier domains are computation-wide (logic.classDomain
// is env.C.EventsOf, logic.threadDomain scans event labels), so a ForAll
// over a class with no events is true and an Exists is false regardless
// of the body, in every env sharing that computation.
//
// falseGuards feeds GEM009: when every class of some false guard is
// statically unproducible, the restriction is false on every legal
// computation, so the specification admits none. validGuards is its dual,
// which falseGuards needs for Not, Implies and Iff.

// maxGuardAlts caps the alternatives tracked per formula; the cross
// products below (And for valid, Or for false) are the only growth
// points. Dropping alternatives is sound — guards are sufficient
// conditions, never necessary ones.
const maxGuardAlts = 16

// guardSet is one emptiness condition: every listed class reference must
// have no events in the computation, and no event may carry a label of a
// listed thread type. The empty guardSet is the trivially-satisfied
// condition (the formula is a tautology, resp. unsatisfiable).
type guardSet struct {
	refs    []core.ClassRef
	threads []string
}

func (g guardSet) withRef(refs ...core.ClassRef) guardSet {
	out := guardSet{refs: append([]core.ClassRef(nil), refs...)}
	return out.normalize()
}

func (g guardSet) withThread(t string) guardSet {
	return guardSet{threads: []string{t}}
}

// normalize sorts and dedups, so structurally equal guards compare equal.
func (g guardSet) normalize() guardSet {
	sort.Slice(g.refs, func(i, j int) bool { return refLess(g.refs[i], g.refs[j]) })
	g.refs = dedupRefs(g.refs)
	sort.Strings(g.threads)
	g.threads = dedupStrings(g.threads)
	return g
}

func refLess(a, b core.ClassRef) bool {
	if a.Element != b.Element {
		return a.Element < b.Element
	}
	return a.Class < b.Class
}

func dedupRefs(rs []core.ClassRef) []core.ClassRef {
	out := rs[:0]
	for i, r := range rs {
		if i == 0 || r != rs[i-1] {
			out = append(out, r)
		}
	}
	return out
}

func dedupStrings(ss []string) []string {
	out := ss[:0]
	for i, s := range ss {
		if i == 0 || s != ss[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// mergeGuards unions two emptiness conditions (both must hold).
func mergeGuards(a, b guardSet) guardSet {
	return guardSet{
		refs:    append(append([]core.ClassRef(nil), a.refs...), b.refs...),
		threads: append(append([]string(nil), a.threads...), b.threads...),
	}.normalize()
}

// crossGuards pairs every alternative of a with every alternative of b
// (conjunction of conditions), capped at maxGuardAlts.
func crossGuards(a, b []guardSet) []guardSet {
	var out []guardSet
	for _, ga := range a {
		for _, gb := range b {
			out = append(out, mergeGuards(ga, gb))
			if len(out) >= maxGuardAlts {
				return out
			}
		}
	}
	return out
}

// unionAlts concatenates alternative lists (disjunction of conditions),
// capped at maxGuardAlts.
func unionAlts(lists ...[]guardSet) []guardSet {
	var out []guardSet
	for _, l := range lists {
		for _, g := range l {
			out = append(out, g)
			if len(out) >= maxGuardAlts {
				return out
			}
		}
	}
	return out
}

// validGuards returns alternative guards, each sufficient for f to be
// TRUE in every environment over a computation empty on the guard. An
// empty result means the calculus cannot decide f by emptiness; a result
// containing the empty guardSet means f is a tautology.
func validGuards(f logic.Formula) []guardSet {
	switch g := f.(type) {
	case logic.TrueF:
		return []guardSet{{}}
	case logic.ForAll:
		return []guardSet{guardSet{}.withRef(g.Ref)}
	case logic.ForAllIn:
		return []guardSet{guardSet{}.withRef(g.Refs...)}
	case logic.AtMostOne:
		return []guardSet{guardSet{}.withRef(g.Ref)}
	case logic.ForAllThread:
		return []guardSet{guardSet{}.withThread(g.Type)}
	case logic.Not:
		return falseGuards(g.F)
	case logic.And:
		// Every conjunct must be decided true under one combined guard.
		alts := []guardSet{{}}
		for _, sub := range g {
			alts = crossGuards(alts, validGuards(sub))
			if len(alts) == 0 {
				return nil
			}
		}
		return alts
	case logic.Or:
		var lists [][]guardSet
		for _, sub := range g {
			lists = append(lists, validGuards(sub))
		}
		return unionAlts(lists...)
	case logic.Implies:
		return unionAlts(falseGuards(g.If), validGuards(g.Then))
	case logic.Iff:
		return unionAlts(
			crossGuards(validGuards(g.A), validGuards(g.B)),
			crossGuards(falseGuards(g.A), falseGuards(g.B)))
	case logic.Box:
		// □φ is true when φ holds at every position; a guard making φ
		// true in every env does exactly that.
		return validGuards(g.F)
	case logic.Diamond:
		// Sequences are non-empty, so always-true φ is eventually true.
		return validGuards(g.F)
	case logic.CountDiff:
		if g.Min <= 0 && (g.NoMax || g.Max >= 0) {
			return []guardSet{guardSet{}.withRef(g.A, g.B)}
		}
		return nil
	case logic.FIFOValues:
		// With no B events the pairing loop is empty and the check holds.
		return []guardSet{guardSet{}.withRef(g.B)}
	default:
		return nil
	}
}

// falseGuards returns alternative guards, each sufficient for f to be
// FALSE in every environment over a computation empty on the guard. A
// result containing the empty guardSet means f is unsatisfiable outright.
func falseGuards(f logic.Formula) []guardSet {
	switch g := f.(type) {
	case logic.FalseF:
		return []guardSet{{}}
	case logic.Exists:
		return []guardSet{guardSet{}.withRef(g.Ref)}
	case logic.ExistsUnique:
		return []guardSet{guardSet{}.withRef(g.Ref)}
	case logic.ExistsUniqueIn:
		return []guardSet{guardSet{}.withRef(g.Refs...)}
	case logic.ExistsThread:
		return []guardSet{guardSet{}.withThread(g.Type)}
	case logic.Not:
		return validGuards(g.F)
	case logic.And:
		var lists [][]guardSet
		for _, sub := range g {
			lists = append(lists, falseGuards(sub))
		}
		return unionAlts(lists...)
	case logic.Or:
		// Every disjunct must be decided false under one combined guard.
		alts := []guardSet{{}}
		for _, sub := range g {
			alts = crossGuards(alts, falseGuards(sub))
			if len(alts) == 0 {
				return nil
			}
		}
		return alts
	case logic.Implies:
		return crossGuards(validGuards(g.If), falseGuards(g.Then))
	case logic.Iff:
		return unionAlts(
			crossGuards(validGuards(g.A), falseGuards(g.B)),
			crossGuards(falseGuards(g.A), validGuards(g.B)))
	case logic.Box:
		// Always-false φ fails at the first position of every sequence.
		return falseGuards(g.F)
	case logic.Diamond:
		return falseGuards(g.F)
	case logic.CountDiff:
		if g.Min > 0 || (!g.NoMax && g.Max < 0) {
			return []guardSet{guardSet{}.withRef(g.A, g.B)}
		}
		return nil
	default:
		return nil
	}
}

func (gs guardSet) String() string {
	parts := make([]string, 0, len(gs.refs)+len(gs.threads))
	for _, r := range gs.refs {
		parts = append(parts, r.String())
	}
	for _, t := range gs.threads {
		parts = append(parts, "thread "+t)
	}
	if len(parts) == 0 {
		return "{}"
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
