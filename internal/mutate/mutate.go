// Package mutate implements mutation campaigns over GEM specifications
// and computations: a deterministic, seedable mutator (drop a
// restriction, negate or weaken a formula node, widen a port, permute a
// thread's prerequisite chain, and edge/event/parameter mutations on
// computations), a campaign runner (Run) that fans thousands of mutants out
// to the logic.FirstFailure pool with per-mutant cancellation and
// verdict dedup, and a ddmin shrinker that delta-debugs every failing
// computation down to a minimal counterexample re-validated via
// logic.Counterexample.Verify.
//
// Mutation grows the engine-agreement corpus: every mutant is checked
// under the auto, lattice, and seq engines, and any verdict or blame
// disagreement is a campaign finding — the same campaign-at-scale shape
// the cat/herd tooling uses against memory models. Mutants that are
// merely illegal (the expected outcome for most operators) are corpus
// entries, not findings.
//
// Determinism contract: a campaign is a pure function of (seed set,
// campaign seed, N). Each mutant's randomness derives from
// splitmix64(campaign seed, mutant index) alone, generation and dedup
// are sequential, and only the checking of already-deduped mutants fans
// out — so reports are byte-identical across -j values.
package mutate

import (
	"fmt"
	"sort"

	"gem/internal/core"
	"gem/internal/logic"
	"gem/internal/spec"
	"gem/internal/thread"
)

// Op identifies a mutation operator.
type Op string

// The mutation operators. The first five mutate the specification IR
// (the paper's restriction language, enable-relation constraints, group
// ports, and thread prerequisite chains); the rest mutate the
// computation (the enable relation and event structure the restrictions
// are checked against).
const (
	OpDropRestriction Op = "drop-restriction"
	OpNegateNode      Op = "negate-node"
	OpWeakenNode      Op = "weaken-node"
	OpWidenPort       Op = "widen-port"
	OpPermutePrereqs  Op = "permute-prereqs"
	OpSwapEnable      Op = "swap-enable"
	OpDropEnable      Op = "drop-enable"
	OpAddEnable       Op = "add-enable"
	OpDropEvent       Op = "drop-event"
	OpPerturbParam    Op = "perturb-param"
)

// AllOps lists every operator in the fixed order the generator draws
// from; the order is part of the determinism contract.
var AllOps = []Op{
	OpDropRestriction, OpNegateNode, OpWeakenNode, OpWidenPort,
	OpPermutePrereqs, OpSwapEnable, OpDropEnable, OpAddEnable,
	OpDropEvent, OpPerturbParam,
}

// Rejected is the typed error for mutants the operator cannot produce:
// the operator is inapplicable to the drawn seed (no thread to permute,
// no parameter to perturb) or the mutated computation is structurally
// invalid (an edge swap introduced a temporal cycle). Rejection is a
// counted, expected outcome — never a panic.
type Rejected struct {
	Op     Op
	Reason string
}

func (e *Rejected) Error() string {
	return fmt.Sprintf("mutate: %s rejected: %s", e.Op, e.Reason)
}

func reject(op Op, format string, args ...any) error {
	return &Rejected{Op: op, Reason: fmt.Sprintf(format, args...)}
}

// Seed is one mutation substrate: a specification plus legal
// computations against it. Operators mutate either side.
type Seed struct {
	Name  string
	Spec  *spec.Spec
	Comps []*core.Computation
}

// Mutant is one generated variant, tagged with its operator and a
// human-readable provenance describing exactly what was changed.
type Mutant struct {
	Index      int
	Seed       string
	Op         Op
	Provenance string
	Spec       *spec.Spec
	Comp       *core.Computation
}

// rng is a splitmix64 generator. Each mutant's stream is keyed by
// (campaign seed, mutant index) alone, so mutant i is the same no
// matter in what order — or on how many workers — the campaign runs.
type rng struct{ state uint64 }

func newRNG(seed int64, index int) *rng {
	r := &rng{state: uint64(seed)*0x9E3779B97F4A7C15 ^ (uint64(index)+1)*0xBF58476D1CE4E5B9}
	r.next()
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		panic("mutate: intn on empty domain")
	}
	return int(r.next() % uint64(n))
}

// Generate produces mutant index of the campaign: it draws a seed, a
// base computation, and an operator from the per-index stream and
// applies the operator. The error is always a *Rejected when non-nil.
func Generate(seeds []Seed, campaignSeed int64, index int) (*Mutant, error) {
	if len(seeds) == 0 {
		panic("mutate: no seeds")
	}
	r := newRNG(campaignSeed, index)
	sd := seeds[r.intn(len(seeds))]
	base := sd.Comps[r.intn(len(sd.Comps))]
	op := AllOps[r.intn(len(AllOps))]

	sp := sd.Spec
	ir := irOf(base)
	var prov string
	var err error
	switch op {
	case OpDropRestriction, OpNegateNode, OpWeakenNode:
		sp, prov, err = mutateFormulaSide(sd.Spec, op, r)
	case OpWidenPort:
		sp, prov, err = widenPort(sd.Spec, r)
	case OpPermutePrereqs:
		sp, prov, err = permutePrereqs(sd.Spec, r)
	case OpSwapEnable:
		prov, err = swapEnable(&ir, r)
	case OpDropEnable:
		prov, err = dropEnable(&ir, r)
	case OpAddEnable:
		prov, err = addEnable(&ir, r)
	case OpDropEvent:
		prov, err = dropEvent(&ir, r)
	case OpPerturbParam:
		prov, err = perturbParam(&ir, r)
	default:
		panic("mutate: unknown operator " + string(op))
	}
	if err != nil {
		return nil, err
	}
	comp, berr := ir.build(sp)
	if berr != nil {
		// The mutation produced a structurally invalid computation (a
		// temporal cycle): a typed rejection, never a panic.
		return nil, reject(op, "mutant does not build: %v", berr)
	}
	return &Mutant{
		Index:      index,
		Seed:       sd.Name,
		Op:         op,
		Provenance: prov,
		Spec:       sp,
		Comp:       comp,
	}, nil
}

// ---- specification-side operators ----

// mutateFormulaSide implements drop-restriction, negate-node, and
// weaken-node: pick a restriction slot (in spec.Restrictions order),
// then drop it or rewrite one of its formula nodes.
func mutateFormulaSide(s *spec.Spec, op Op, r *rng) (*spec.Spec, string, error) {
	rs := s.Restrictions()
	if len(rs) == 0 {
		return nil, "", reject(op, "spec declares no restrictions")
	}
	target := r.intn(len(rs))
	owner, name := rs[target].Owner, rs[target].Name
	switch op {
	case OpDropRestriction:
		out := rebuildSpec(s, target, func(spec.Restriction) (spec.Restriction, bool) {
			return spec.Restriction{}, false
		})
		return out, fmt.Sprintf("dropped restriction %q of %s", name, owner), nil
	case OpNegateNode:
		node := r.intn(countNodes(rs[target].F))
		var desc string
		out := rebuildSpec(s, target, func(old spec.Restriction) (spec.Restriction, bool) {
			k := node
			nf := rewriteNth(old.F, &k, func(sub logic.Formula) logic.Formula {
				desc = sub.String()
				return logic.Not{F: sub}
			})
			return spec.Restriction{Name: old.Name, F: nf}, true
		})
		return out, fmt.Sprintf("negated node %d (%s) of restriction %q of %s", node, clip(desc), name, owner), nil
	default: // OpWeakenNode
		node := r.intn(countNodes(rs[target].F))
		var desc string
		out := rebuildSpec(s, target, func(old spec.Restriction) (spec.Restriction, bool) {
			k := node
			nf := rewriteNth(old.F, &k, func(sub logic.Formula) logic.Formula {
				w := weaken(sub, r)
				desc = fmt.Sprintf("%s -> %s", clip(sub.String()), clip(w.String()))
				return w
			})
			return spec.Restriction{Name: old.Name, F: nf}, true
		})
		return out, fmt.Sprintf("weakened node %d (%s) of restriction %q of %s", node, desc, name, owner), nil
	}
}

// widenPort adds an extra port to a group: a member element's event
// class not already designated, chosen deterministically.
func widenPort(s *spec.Spec, r *rng) (*spec.Spec, string, error) {
	type candidate struct {
		group string
		port  core.Port
	}
	var cands []candidate
	for _, gname := range s.GroupNames() {
		g, _ := s.Group(gname)
		declared := make(map[core.Port]bool, len(g.Ports))
		for _, p := range g.Ports {
			declared[p] = true
		}
		for _, m := range g.Members {
			d, ok := s.Element(m)
			if !ok {
				continue // member group: its classes are not portable here
			}
			for _, ec := range d.Events {
				p := core.Port{Element: m, Class: ec.Name}
				if !declared[p] {
					cands = append(cands, candidate{group: gname, port: p})
				}
			}
		}
	}
	if len(cands) == 0 {
		return nil, "", reject(OpWidenPort, "no group has an undesignated member class")
	}
	c := cands[r.intn(len(cands))]
	out := rebuildSpec(s, -1, nil)
	g, _ := out.Group(c.group)
	g.Ports = append(g.Ports, c.port)
	return out, fmt.Sprintf("widened group %s with port %s.%s", c.group, c.port.Element, c.port.Class), nil
}

// permutePrereqs swaps two adjacent steps of a thread type's class
// path — the paper's prerequisite chains are exactly these paths, so the
// swap reorders a prerequisite.
func permutePrereqs(s *spec.Spec, r *rng) (*spec.Spec, string, error) {
	type candidate struct {
		thread int
		step   int
	}
	var cands []candidate
	for ti, tt := range s.Threads() {
		for j := 0; j+1 < len(tt.Path); j++ {
			if tt.Path[j] != tt.Path[j+1] {
				cands = append(cands, candidate{thread: ti, step: j})
			}
		}
	}
	if len(cands) == 0 {
		return nil, "", reject(OpPermutePrereqs, "no thread path has two distinct adjacent steps")
	}
	c := cands[r.intn(len(cands))]
	out := rebuildSpec(s, -1, nil)
	tt := out.Threads()[c.thread]
	path := tt.Path
	prov := fmt.Sprintf("permuted thread %s steps %d,%d (%s <-> %s)",
		tt.Name, c.step, c.step+1, path[c.step], path[c.step+1])
	path[c.step], path[c.step+1] = path[c.step+1], path[c.step]
	return out, prov, nil
}

// rebuildSpec deep-copies a specification, optionally transforming the
// target-th restriction (in spec.Restrictions order; tf returning false
// drops it). target < 0 copies verbatim. The copy owns all its slices,
// so callers may mutate ports and thread paths freely.
func rebuildSpec(s *spec.Spec, target int, tf func(spec.Restriction) (spec.Restriction, bool)) *spec.Spec {
	out := spec.New(s.Name)
	n := 0
	filter := func(rs []spec.Restriction) []spec.Restriction {
		kept := make([]spec.Restriction, 0, len(rs))
		for _, r := range rs {
			if n == target {
				if nr, keep := tf(r); keep {
					kept = append(kept, nr)
				}
			} else {
				kept = append(kept, r)
			}
			n++
		}
		return kept
	}
	// Globals come first in Restrictions order, so the counter must pass
	// them first; they are attached to the copy at the end (AddRestriction
	// appends, preserving order).
	var globals []spec.Restriction
	for _, r := range s.Restrictions() {
		if r.Owner == s.Name {
			globals = append(globals, r.Restriction)
		}
	}
	globals = filter(globals)
	for _, name := range s.ElementNames() {
		d, _ := s.Element(name)
		out.AddElement(&spec.ElementDecl{
			Name:         d.Name,
			TypeName:     d.TypeName,
			Events:       append([]spec.EventClassDecl(nil), d.Events...),
			Restrictions: filter(d.Restrictions),
		})
	}
	for _, name := range s.GroupNames() {
		g, _ := s.Group(name)
		out.AddGroup(&spec.GroupDecl{
			Name:         g.Name,
			TypeName:     g.TypeName,
			Members:      append([]string(nil), g.Members...),
			Ports:        append([]core.Port(nil), g.Ports...),
			Restrictions: filter(g.Restrictions),
		})
	}
	for _, r := range globals {
		out.AddRestriction(r.Name, r.F)
	}
	for _, tt := range s.Threads() {
		out.AddThread(thread.Type{Name: tt.Name, Path: append([]core.ClassRef(nil), tt.Path...)})
	}
	return out
}

// ---- formula node machinery ----

// countNodes counts the formula's nodes in pre-order.
func countNodes(f logic.Formula) int {
	n := 1
	switch g := f.(type) {
	case logic.Not:
		n += countNodes(g.F)
	case logic.And:
		for _, sub := range g {
			n += countNodes(sub)
		}
	case logic.Or:
		for _, sub := range g {
			n += countNodes(sub)
		}
	case logic.Implies:
		n += countNodes(g.If) + countNodes(g.Then)
	case logic.Iff:
		n += countNodes(g.A) + countNodes(g.B)
	case logic.Box:
		n += countNodes(g.F)
	case logic.Diamond:
		n += countNodes(g.F)
	case logic.ForAll:
		n += countNodes(g.Body)
	case logic.Exists:
		n += countNodes(g.Body)
	case logic.ExistsUnique:
		n += countNodes(g.Body)
	case logic.AtMostOne:
		n += countNodes(g.Body)
	case logic.ForAllThread:
		n += countNodes(g.Body)
	case logic.ExistsThread:
		n += countNodes(g.Body)
	case logic.ForAllIn:
		n += countNodes(g.Body)
	case logic.ExistsUniqueIn:
		n += countNodes(g.Body)
	}
	return n
}

// rewriteNth rebuilds the formula with tf applied to its k-th node in
// pre-order. k is decremented in place; on return k < 0 iff the rewrite
// was applied.
func rewriteNth(f logic.Formula, k *int, tf func(logic.Formula) logic.Formula) logic.Formula {
	if *k == 0 {
		*k = -1
		return tf(f)
	}
	if *k < 0 {
		return f
	}
	*k--
	switch g := f.(type) {
	case logic.Not:
		return logic.Not{F: rewriteNth(g.F, k, tf)}
	case logic.And:
		out := make(logic.And, len(g))
		for i, sub := range g {
			out[i] = rewriteNth(sub, k, tf)
		}
		return out
	case logic.Or:
		out := make(logic.Or, len(g))
		for i, sub := range g {
			out[i] = rewriteNth(sub, k, tf)
		}
		return out
	case logic.Implies:
		return logic.Implies{If: rewriteNth(g.If, k, tf), Then: rewriteNth(g.Then, k, tf)}
	case logic.Iff:
		return logic.Iff{A: rewriteNth(g.A, k, tf), B: rewriteNth(g.B, k, tf)}
	case logic.Box:
		return logic.Box{F: rewriteNth(g.F, k, tf)}
	case logic.Diamond:
		return logic.Diamond{F: rewriteNth(g.F, k, tf)}
	case logic.ForAll:
		g.Body = rewriteNth(g.Body, k, tf)
		return g
	case logic.Exists:
		g.Body = rewriteNth(g.Body, k, tf)
		return g
	case logic.ExistsUnique:
		g.Body = rewriteNth(g.Body, k, tf)
		return g
	case logic.AtMostOne:
		g.Body = rewriteNth(g.Body, k, tf)
		return g
	case logic.ForAllThread:
		g.Body = rewriteNth(g.Body, k, tf)
		return g
	case logic.ExistsThread:
		g.Body = rewriteNth(g.Body, k, tf)
		return g
	case logic.ForAllIn:
		g.Body = rewriteNth(g.Body, k, tf)
		return g
	case logic.ExistsUniqueIn:
		g.Body = rewriteNth(g.Body, k, tf)
		return g
	default:
		return f // leaf
	}
}

// weaken rewrites one node into a (usually) less constraining shape:
// temporal operators lose their modality, conjunctions and disjunctions
// lose a member, universals become existentials, negations unwrap, and
// leaves degrade to TRUE. Every result is an exported formula shape, so
// the mutant still renders and re-parses.
func weaken(f logic.Formula, r *rng) logic.Formula {
	switch g := f.(type) {
	case logic.Box:
		return g.F
	case logic.Diamond:
		return g.F
	case logic.Not:
		return g.F
	case logic.And:
		if len(g) >= 2 {
			return dropMember(g, r.intn(len(g)))
		}
		return logic.TrueF{}
	case logic.Or:
		if len(g) >= 2 {
			out := dropMember([]logic.Formula(g), r.intn(len(g)))
			if and, ok := out.(logic.And); ok {
				return logic.Or(and)
			}
			return out
		}
		return logic.TrueF{}
	case logic.ForAll:
		return logic.Exists{Var: g.Var, Ref: g.Ref, Body: g.Body}
	case logic.ForAllThread:
		return logic.ExistsThread{Var: g.Var, Type: g.Type, Body: g.Body}
	case logic.ExistsUnique:
		return logic.Exists{Var: g.Var, Ref: g.Ref, Body: g.Body}
	case logic.AtMostOne:
		return logic.TrueF{}
	case logic.Implies:
		return g.Then
	default:
		return logic.TrueF{}
	}
}

// dropMember removes member i; a singleton result unwraps.
func dropMember(fs []logic.Formula, i int) logic.Formula {
	out := make(logic.And, 0, len(fs)-1)
	out = append(out, fs[:i]...)
	out = append(out, fs[i+1:]...)
	if len(out) == 1 {
		return out[0]
	}
	return out
}

func clip(s string) string {
	if len(s) > 60 {
		return s[:57] + "..."
	}
	return s
}

// ---- computation-side operators ----

// compIR is the mutable intermediate form of a computation: events in id
// order plus the direct enable edges. Thread labels are not carried —
// build re-derives them from the (possibly mutated) spec, so event and
// edge mutations relabel consistently.
type compIR struct {
	events []eventIR
	edges  [][2]int
}

type eventIR struct {
	element string
	class   string
	params  core.Params
}

// irOf lifts a computation into the mutable form. Edge order is (source
// id, adjacency order) — deterministic, matching the builder's dedup.
func irOf(c *core.Computation) compIR {
	var ir compIR
	for _, e := range c.Events() {
		ir.events = append(ir.events, eventIR{element: e.Element, class: e.Class, params: e.Params.Clone()})
	}
	for _, e := range c.Events() {
		for _, dst := range c.Enabled(e.ID) {
			ir.edges = append(ir.edges, [2]int{int(e.ID), int(dst)})
		}
	}
	return ir
}

// build assembles the computation and applies the spec's thread types.
func (ir compIR) build(sp *spec.Spec) (*core.Computation, error) {
	b := core.NewBuilder()
	for _, e := range ir.events {
		b.Event(e.element, e.class, e.params)
	}
	for _, ed := range ir.edges {
		b.Enable(core.EventID(ed[0]), core.EventID(ed[1]))
	}
	c, err := b.Build()
	if err != nil {
		return nil, err
	}
	thread.Apply(c, sp.Threads()...)
	return c, nil
}

func (ir compIR) edgeName(ed [2]int) string {
	return fmt.Sprintf("%s|>%s", ir.eventName(ed[0]), ir.eventName(ed[1]))
}

func (ir compIR) eventName(i int) string {
	return fmt.Sprintf("%s.%s[%d]", ir.events[i].element, ir.events[i].class, i)
}

func swapEnable(ir *compIR, r *rng) (string, error) {
	if len(ir.edges) < 2 {
		return "", reject(OpSwapEnable, "fewer than two enable edges")
	}
	i := r.intn(len(ir.edges))
	j := r.intn(len(ir.edges) - 1)
	if j >= i {
		j++
	}
	prov := fmt.Sprintf("swapped targets of %s and %s", ir.edgeName(ir.edges[i]), ir.edgeName(ir.edges[j]))
	ir.edges[i][1], ir.edges[j][1] = ir.edges[j][1], ir.edges[i][1]
	if ir.edges[i][0] == ir.edges[i][1] || ir.edges[j][0] == ir.edges[j][1] {
		return "", reject(OpSwapEnable, "swap produced a self-enabling event")
	}
	return prov, nil
}

func dropEnable(ir *compIR, r *rng) (string, error) {
	if len(ir.edges) == 0 {
		return "", reject(OpDropEnable, "no enable edges")
	}
	i := r.intn(len(ir.edges))
	prov := fmt.Sprintf("dropped edge %s", ir.edgeName(ir.edges[i]))
	ir.edges = append(ir.edges[:i], ir.edges[i+1:]...)
	return prov, nil
}

func addEnable(ir *compIR, r *rng) (string, error) {
	present := make(map[[2]int]bool, len(ir.edges))
	for _, ed := range ir.edges {
		present[ed] = true
	}
	var cands [][2]int
	for s := range ir.events {
		for d := range ir.events {
			if s != d && !present[[2]int{s, d}] {
				cands = append(cands, [2]int{s, d})
			}
		}
	}
	if len(cands) == 0 {
		return "", reject(OpAddEnable, "enable relation is complete")
	}
	ed := cands[r.intn(len(cands))]
	ir.edges = append(ir.edges, ed)
	return fmt.Sprintf("added edge %s", ir.edgeName(ed)), nil
}

func dropEvent(ir *compIR, r *rng) (string, error) {
	if len(ir.events) < 2 {
		return "", reject(OpDropEvent, "fewer than two events")
	}
	k := r.intn(len(ir.events))
	prov := fmt.Sprintf("dropped event %s", ir.eventName(k))
	ir.events = append(ir.events[:k], ir.events[k+1:]...)
	kept := ir.edges[:0]
	for _, ed := range ir.edges {
		if ed[0] == k || ed[1] == k {
			continue
		}
		if ed[0] > k {
			ed[0]--
		}
		if ed[1] > k {
			ed[1]--
		}
		kept = append(kept, ed)
	}
	ir.edges = kept
	return prov, nil
}

func perturbParam(ir *compIR, r *rng) (string, error) {
	type slot struct {
		event int
		name  string
	}
	var cands []slot
	for i, e := range ir.events {
		names := make([]string, 0, len(e.params))
		for name, v := range e.params {
			if v.Kind == core.KindInt {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			cands = append(cands, slot{event: i, name: name})
		}
	}
	if len(cands) == 0 {
		return "", reject(OpPerturbParam, "no integer parameters")
	}
	c := cands[r.intn(len(cands))]
	delta := int64(1 + r.intn(5))
	if r.intn(2) == 0 {
		delta = -delta
	}
	old := ir.events[c.event].params[c.name]
	ir.events[c.event].params[c.name] = core.Int(old.I + delta)
	return fmt.Sprintf("perturbed %s.%s %d -> %d", ir.eventName(c.event), c.name, old.I, old.I+delta), nil
}
