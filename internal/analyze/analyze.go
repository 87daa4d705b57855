// Package analyze implements gemlint's deep semantic analysis (the
// `-deep` mode): whole-specification reasoning over an abstract enable
// graph derived from the IR — elements, groups, ports, the Section 4
// access relation, and the EnableConstraints extracted from the Section
// 8.2 abbreviation shapes — plus a wait-for graph over the Section 8.3
// thread chains. Where package lint checks each restriction in
// isolation (GEM001–GEM008), this package checks their interactions:
//
//	GEM009  contradictory restriction set — the spec admits no legal
//	        computation at all, so every verification against it is
//	        vacuous (error);
//	GEM010  static deadlock — a circular mandatory wait among
//	        prerequisites threaded across chains (warning);
//	GEM011  unreachable event — a class no legal enable chain can
//	        produce, transitively, under the access relation (error);
//	GEM012  subsumed/redundant restriction (warning).
package analyze

import (
	"fmt"
	"sync"

	"gem/internal/gemlang"
	"gem/internal/lint"
	"gem/internal/obs"
	"gem/internal/spec"
	"gem/internal/thread"
)

// Result is the outcome of one deep analysis.
type Result struct {
	// Lint is the underlying shallow analysis (GEM001–GEM008) the deep
	// passes build on.
	Lint *lint.Result
	// Deep holds the GEM009–GEM012 diagnostics, canonically sorted.
	Deep []lint.Diagnostic
}

// All returns the shallow and deep diagnostics merged in canonical
// order.
func (r *Result) All() []lint.Diagnostic {
	out := make([]lint.Diagnostic, 0, len(r.Lint.Diags)+len(r.Deep))
	out = append(out, r.Lint.Diags...)
	out = append(out, r.Deep...)
	lint.SortDiagnostics(out)
	return out
}

// Errors returns the error-severity diagnostics of All.
func (r *Result) Errors() []lint.Diagnostic { return r.bySeverity(lint.SeverityError) }

// Warnings returns the warning-severity diagnostics of All.
func (r *Result) Warnings() []lint.Diagnostic { return r.bySeverity(lint.SeverityWarning) }

func (r *Result) bySeverity(s lint.Severity) []lint.Diagnostic {
	var out []lint.Diagnostic
	for _, d := range r.All() {
		if d.Severity == s {
			out = append(out, d)
		}
	}
	return out
}

// Analyze runs the deep analysis over the specification IR. Diagnostics
// carry no positions; use AnalyzeSource for position-annotated output.
func Analyze(s *spec.Spec) *Result { return AnalyzeMarked(s, nil) }

// AnalyzeSource parses GEM source and deep-analyzes it, attaching source
// positions to the diagnostics.
func AnalyzeSource(src string) (*Result, error) {
	s, marks, err := gemlang.ParseWithPositions(src)
	if err != nil {
		return nil, err
	}
	return AnalyzeMarked(s, marks), nil
}

// AnalyzeMarked deep-analyzes an already-parsed specification with the
// given position map (which may be nil).
func AnalyzeMarked(s *spec.Spec, marks *gemlang.SourceMap) *Result {
	lr := lint.AnalyzeMarked(s, marks)
	_, sp := obs.StartSpan(nil, "analyze.deep")
	defer sp.End()
	a := &deepAnalysis{s: s, marks: marks, res: &Result{Lint: lr}}
	g := buildPairGraph(s, lr)
	a.checkUnreachable(g, lr)
	a.checkContradiction(g)
	a.checkDeadlock(g, lr)
	a.checkRedundant(lr)
	lint.SortDiagnostics(a.res.Deep)
	return a.res
}

var specCache sync.Map // *spec.Spec -> *Result

// ForSpec memoizes Analyze per Spec value, so repeated calls for one
// specification cost nothing after the first.
func ForSpec(s *spec.Spec) *Result {
	if r, ok := specCache.Load(s); ok {
		return r.(*Result)
	}
	r := Analyze(s)
	specCache.Store(s, r)
	return r
}

// deepAnalysis carries the shared state of one AnalyzeMarked run.
type deepAnalysis struct {
	s     *spec.Spec
	marks *gemlang.SourceMap
	res   *Result
}

func (a *deepAnalysis) restrictionPos(name string) lint.Pos {
	return lint.PosOf(a.marks, "restriction", name)
}

func (a *deepAnalysis) errAt(pos lint.Pos, code lint.Code, subject, format string, args ...any) {
	a.add(lint.Diagnostic{Code: code, Severity: lint.SeverityError, Subject: subject,
		Message: fmt.Sprintf(format, args...), Pos: pos})
}

func (a *deepAnalysis) warnAt(pos lint.Pos, code lint.Code, subject, format string, args ...any) {
	a.add(lint.Diagnostic{Code: code, Severity: lint.SeverityWarning, Subject: subject,
		Message: fmt.Sprintf(format, args...), Pos: pos})
}

func (a *deepAnalysis) add(d lint.Diagnostic) {
	for _, prev := range a.res.Deep {
		if prev.Code == d.Code && prev.Subject == d.Subject && prev.Message == d.Message {
			return
		}
	}
	a.res.Deep = append(a.res.Deep, d)
}

// checkContradiction reports GEM009: a restriction that is false on
// every legal computation, because some emptiness guard falsifying it
// names only classes (and thread types) the producibility fixpoint
// proved no legal computation can contain. The specification then has no
// satisfying computation at all — every verification against it is
// vacuously "correct", which is worth an error, not a warning.
func (a *deepAnalysis) checkContradiction(g *pairGraph) {
	for _, r := range a.s.Restrictions() {
		for _, alt := range falseGuards(r.F) {
			if !a.guardUnsatisfiable(g, alt) {
				continue
			}
			msg := "statically unsatisfiable restriction set: the formula is false in every computation"
			if len(alt.refs) > 0 || len(alt.threads) > 0 {
				msg = fmt.Sprintf("statically unsatisfiable restriction set: requires %s, but no legal computation contains such events",
					alt.String())
			}
			a.errAt(a.restrictionPos(r.Name), lint.CodeContradiction,
				restrictionSubject(r.Owner, r.Name), "%s", msg)
			break
		}
	}
}

// guardUnsatisfiable reports whether the emptiness condition necessarily
// holds on every legal computation: each guarded class resolves only to
// unproducible pairs, and each guarded thread type is declared with
// every alternative path headed by an unproducible class (so no instance
// can ever start). Dangling references and undeclared thread types are
// excluded — their defects are GEM001/GEM002/GEM007 territory and they
// say nothing about legal computations.
func (a *deepAnalysis) guardUnsatisfiable(g *pairGraph, gs guardSet) bool {
	for _, ref := range gs.refs {
		if !g.unproducible(ref) {
			return false
		}
	}
	paths := thread.PathsByType(a.s.Threads())
	for _, t := range gs.threads {
		alts, declared := paths[t]
		if !declared {
			return false
		}
		for _, path := range alts {
			if !g.unproducible(path[0]) {
				return false
			}
		}
	}
	return true
}
