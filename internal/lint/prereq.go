package lint

import (
	"fmt"
	"sort"
	"strings"

	"gem/internal/core"
	"gem/internal/logic"
	"gem/internal/order"
)

// EnableConstraint is a required-enable-edge constraint extracted from a
// restriction: every event of Target must be enabled by exactly one event
// drawn from Sources. PREREQ / FORK / JOIN produce single-source
// constraints; NDPREREQ produces a choice set. The shape is recognized
// structurally (a ForAll whose body conjoins an ExistsUnique(-In) over
// the sources with an Enables atom linking the two variables), so
// hand-written equivalents of the Section 8.2 abbreviations are found
// too.
type EnableConstraint struct {
	Owner       string
	Restriction string
	Sources     []core.ClassRef
	Target      core.ClassRef
	// Doomed marks constraints the analysis proved statically
	// unsatisfiable, with the code and reason of the proof.
	Doomed bool
	Code   Code
	Reason string
}

func (ec EnableConstraint) String() string {
	return fmt.Sprintf("%s -> %s", refsString(ec.Sources), ec.Target)
}

// conjuncts applies fn to every conjunct of f, descending through And
// and Box — the positive contexts in which a constraint must hold
// whenever the formula does.
func conjuncts(f logic.Formula, fn func(logic.Formula)) {
	switch g := f.(type) {
	case logic.And:
		for _, sub := range g {
			conjuncts(sub, fn)
		}
	case logic.Box:
		conjuncts(g.F, fn)
	default:
		fn(f)
	}
}

// extractConstraints recognizes the prerequisite shapes in one
// restriction formula.
func extractConstraints(owner, name string, f logic.Formula) []EnableConstraint {
	var out []EnableConstraint
	conjuncts(f, func(node logic.Formula) {
		fa, ok := node.(logic.ForAll)
		if !ok {
			return
		}
		conjuncts(fa.Body, func(inner logic.Formula) {
			switch q := inner.(type) {
			case logic.ExistsUnique:
				if enablesIn(q.Body, q.Var, fa.Var) {
					out = append(out, EnableConstraint{
						Owner: owner, Restriction: name,
						Sources: []core.ClassRef{q.Ref}, Target: fa.Ref,
					})
				}
			case logic.ExistsUniqueIn:
				if enablesIn(q.Body, q.Var, fa.Var) {
					out = append(out, EnableConstraint{
						Owner: owner, Restriction: name,
						Sources: append([]core.ClassRef(nil), q.Refs...), Target: fa.Ref,
					})
				}
			}
		})
	})
	return out
}

// enablesIn reports whether the formula conjoins src |> dst.
func enablesIn(f logic.Formula, src, dst string) bool {
	found := false
	conjuncts(f, func(node logic.Formula) {
		if e, ok := node.(logic.Enables); ok && e.X == src && e.Y == dst {
			found = true
		}
	})
	return found
}

// checkConstraints extracts the prerequisite structure and runs the
// satisfiability analyses over it: GEM004 (cycles / no well-founded
// start) and GEM005 (access-forbidden edges).
func (a *analysis) checkConstraints() {
	var cs []EnableConstraint
	for _, r := range a.s.Restrictions() {
		cs = append(cs, extractConstraints(r.Owner, r.Name, r.F)...)
	}
	// Constraints with dangling references are excluded from the graph
	// analyses: their defect is already reported as GEM001/GEM002, and
	// their empty domains make them vacuous, not unsatisfiable.
	valid := make([]bool, len(cs))
	for i, c := range cs {
		ok := len(a.resolveElems(c.Target)) > 0
		for _, s := range c.Sources {
			ok = ok && len(a.resolveElems(s)) > 0
		}
		valid[i] = ok
	}

	a.checkCycles(cs, valid)
	a.checkAccess(cs, valid)
	a.res.Constraints = cs
}

// checkCycles decides which constraint targets are supportable: an event
// class is supportable when every constraint targeting it can draw an
// enabler from a supportable class, well-foundedly. The mandatory
// (single-source) edges form a graph whose acyclicity is decided with
// the order.DAG machinery; choice sets are handled by a least-fixpoint
// supportability computation. Unsupportable targets can have no event in
// any legal computation, so every constraint targeting them is doomed
// (GEM004).
func (a *analysis) checkCycles(cs []EnableConstraint, valid []bool) {
	nodeIdx := make(map[string]int)
	var nodes []string
	idOf := func(ref core.ClassRef) int {
		k := ref.String()
		if i, ok := nodeIdx[k]; ok {
			return i
		}
		nodeIdx[k] = len(nodes)
		nodes = append(nodes, k)
		return len(nodes) - 1
	}
	var edges []conEdge
	hasChoice := false
	for i, c := range cs {
		if !valid[i] {
			continue
		}
		e := conEdge{target: idOf(c.Target), ci: i}
		for _, s := range c.Sources {
			e.sources = append(e.sources, idOf(s))
		}
		if len(e.sources) > 1 {
			hasChoice = true
		}
		edges = append(edges, e)
	}
	if len(edges) == 0 {
		return
	}

	// Fast path: with mandatory edges only, satisfiability is exactly
	// acyclicity of the source→target graph.
	dag := order.NewDAG(len(nodes))
	for _, e := range edges {
		if len(e.sources) == 1 {
			dag.AddEdge(e.sources[0], e.target)
		}
	}
	if _, err := dag.TopoSort(); err == nil && !hasChoice {
		return
	}

	// General case: least fixpoint of supportability. Non-target classes
	// are supportable outright (their events need no enabler under these
	// constraints); a target becomes supportable when each constraint
	// targeting it has a supportable source.
	isTarget := make([]bool, len(nodes))
	for _, e := range edges {
		isTarget[e.target] = true
	}
	supportable := make([]bool, len(nodes))
	for v := range nodes {
		supportable[v] = !isTarget[v]
	}
	for changed := true; changed; {
		changed = false
		for v := range nodes {
			if supportable[v] {
				continue
			}
			ok := true
			for _, e := range edges {
				if e.target != v {
					continue
				}
				some := false
				for _, s := range e.sources {
					if supportable[s] {
						some = true
						break
					}
				}
				if !some {
					ok = false
					break
				}
			}
			if ok {
				supportable[v] = true
				changed = true
			}
		}
	}

	// Every constraint targeting an unsupportable class is doomed; the
	// diagnostic is reported once per (restriction, target).
	for k := range edges {
		e := edges[k]
		if supportable[e.target] {
			continue
		}
		c := &cs[e.ci]
		c.Doomed = true
		c.Code = CodePrereqCycle
		c.Reason = fmt.Sprintf("no event of %s can ever be legally enabled: %s",
			nodes[e.target], cycleString(nodes, edges, supportable, e.target))
		a.errAt(a.posOf(inRestriction, c.Restriction), CodePrereqCycle,
			restrictionSubject(c.Owner, c.Restriction), "%s", c.Reason)
	}
}

// conEdge is one constraint lowered onto the node indices of the
// supportability graph.
type conEdge struct {
	target  int
	sources []int
	ci      int // constraint index
}

// cycleString walks the unsupportable subgraph from start, at each step
// following some constraint all of whose sources are unsupportable,
// until a class repeats — producing the concrete requires-chain shown to
// the user, e.g. "a.Go requires prior b.Go requires prior a.Go".
func cycleString(nodes []string, edges []conEdge, supportable []bool, start int) string {
	path := []int{start}
	onPath := map[int]bool{start: true}
	cur := start
	for range nodes {
		next := -1
		for _, e := range edges {
			if e.target != cur {
				continue
			}
			all := true
			for _, s := range e.sources {
				if supportable[s] {
					all = false
					break
				}
			}
			if all && len(e.sources) > 0 {
				next = e.sources[0]
				break
			}
		}
		if next < 0 {
			break
		}
		path = append(path, next)
		if onPath[next] {
			break
		}
		onPath[next] = true
		cur = next
	}
	parts := make([]string, len(path))
	for i, v := range path {
		parts[i] = nodes[v]
	}
	return strings.Join(parts, " requires prior ")
}

// checkAccess flags constraints whose every required enable edge is
// forbidden by the group/port access relation (GEM005): any computation
// exercising the constraint either violates it or contains an
// IllegalEnable.
func (a *analysis) checkAccess(cs []EnableConstraint, valid []bool) {
	if a.universe == nil {
		return
	}
	for i := range cs {
		c := &cs[i]
		if !valid[i] || c.Doomed {
			continue
		}
		possible := false
		for _, s := range c.Sources {
			if a.enablePossible(s, c.Target) {
				possible = true
				break
			}
		}
		if possible {
			continue
		}
		c.Doomed = true
		c.Code = CodeAccessForbidden
		c.Reason = fmt.Sprintf(
			"requires %s to enable %s, but the group access relation forbids every such edge",
			refsString(c.Sources), c.Target)
		a.errAt(a.posOf(inRestriction, c.Restriction), CodeAccessForbidden,
			restrictionSubject(c.Owner, c.Restriction), "%s", c.Reason)
	}
}

// checkDead reports declarations nothing references (GEM006): an event
// class is live when a restriction formula, a port, or a thread path
// mentions it (directly, or element-wide via `@` / a class-less port).
func (a *analysis) checkDead() {
	for _, name := range a.s.ElementNames() {
		d, _ := a.s.Element(name)
		pos := a.posOf(inElement, name)
		if len(d.Events) == 0 {
			if !a.elementLive(name) {
				a.warnAt(pos, CodeDeadDecl, "element "+name,
					"element declares no event classes and is never referenced")
			}
			continue
		}
		var dead []string
		for _, ec := range d.Events {
			if !a.classLive(name, ec.Name) {
				dead = append(dead, ec.Name)
			}
		}
		sort.Strings(dead)
		for _, class := range dead {
			a.warnAt(pos, CodeDeadDecl, "element "+name,
				"event class %s.%s is never referenced by any restriction, port, or thread path",
				name, class)
		}
	}
}

func (a *analysis) elementLive(name string) bool {
	if a.usedElements[name] {
		return true
	}
	for _, ref := range a.usedRefs {
		if ref.Element == name {
			return true
		}
	}
	return false
}

func (a *analysis) classLive(elem, class string) bool {
	if a.usedElements[elem] {
		return true
	}
	for _, ref := range a.usedRefs {
		if ref.Class != class {
			continue
		}
		if ref.Element == "" || ref.Element == elem {
			return true
		}
	}
	return false
}
