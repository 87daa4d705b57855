package logic

import (
	"fmt"
	"math/rand"
	"testing"

	"gem/internal/core"
	"gem/internal/history"
)

// immGen draws random immediate formulas over the whole immediate
// language — every history atom, every structural atom, every connective
// and every quantifier form, nested — with variables drawn from the
// enclosing quantifiers' scope. Its class and thread-type pools include
// names no event carries, so empty quantifier domains come up too.
type immGen struct {
	rng  *rand.Rand
	evs  []string        // bound event variables
	ths  []string        // bound thread variables
	next int             // fresh-variable counter
	seen map[string]bool // node kinds drawn, by Go type, plus "empty domain"
}

var (
	genClasses = []core.ClassRef{
		core.Ref("", "X"), core.Ref("", "Y"), core.Ref("A", "X"), core.Ref("B", "Y"),
		core.Ref("", "Z"), // no event has class Z: an empty domain
	}
	genThreadTypes = []string{"T", "U", "V"} // no event is on a V thread
	genOps         = []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
)

func (g *immGen) class() core.ClassRef { return genClasses[g.rng.Intn(len(genClasses))] }
func (g *immGen) ev() string           { return g.evs[g.rng.Intn(len(g.evs))] }
func (g *immGen) th() string           { return g.ths[g.rng.Intn(len(g.ths))] }

func (g *immGen) formula(depth int) Formula {
	f := g.draw(depth)
	if g.seen != nil {
		g.seen[fmt.Sprintf("%T", f)] = true
	}
	return f
}

func (g *immGen) draw(depth int) Formula {
	if depth == 0 || g.rng.Intn(5) == 0 {
		return g.atom()
	}
	sub := func() Formula { return g.formula(depth - 1) }
	junction := func() []Formula {
		fs := make([]Formula, g.rng.Intn(4)) // includes the empty ∧/∨
		for i := range fs {
			fs[i] = sub()
		}
		return fs
	}
	switch g.rng.Intn(14) {
	case 0:
		return Not{F: sub()}
	case 1:
		return And(junction())
	case 2:
		return Or(junction())
	case 3:
		return Implies{If: sub(), Then: sub()}
	case 4:
		return Iff{A: sub(), B: sub()}
	case 5, 6:
		return g.threadQuant(depth)
	default:
		return g.eventQuant(depth)
	}
}

func (g *immGen) eventQuant(depth int) Formula {
	v := fmt.Sprintf("e%d", g.next)
	g.next++
	ref := g.class()
	refs := []core.ClassRef{g.class(), g.class()}
	if ref == genClasses[len(genClasses)-1] && g.seen != nil {
		g.seen["empty domain"] = true
	}
	g.evs = append(g.evs, v)
	body := g.formula(depth - 1)
	g.evs = g.evs[:len(g.evs)-1]
	switch g.rng.Intn(6) {
	case 0:
		return ForAll{Var: v, Ref: ref, Body: body}
	case 1:
		return Exists{Var: v, Ref: ref, Body: body}
	case 2:
		return ExistsUnique{Var: v, Ref: ref, Body: body}
	case 3:
		return AtMostOne{Var: v, Ref: ref, Body: body}
	case 4:
		return ForAllIn{Var: v, Refs: refs, Body: body}
	default:
		return ExistsUniqueIn{Var: v, Refs: refs, Body: body}
	}
}

func (g *immGen) threadQuant(depth int) Formula {
	v := fmt.Sprintf("t%d", g.next)
	g.next++
	typ := genThreadTypes[g.rng.Intn(len(genThreadTypes))]
	if typ == "V" && g.seen != nil {
		g.seen["empty thread domain"] = true
	}
	g.ths = append(g.ths, v)
	body := g.formula(depth - 1)
	g.ths = g.ths[:len(g.ths)-1]
	if g.rng.Intn(2) == 0 {
		return ForAllThread{Var: v, Type: typ, Body: body}
	}
	return ExistsThread{Var: v, Type: typ, Body: body}
}

// atom draws an atom whose variables are all in scope.
func (g *immGen) atom() Formula {
	op := func() CmpOp { return genOps[g.rng.Intn(len(genOps))] }
	atoms := []func() Formula{
		func() Formula { return TrueF{} },
		func() Formula { return FalseF{} },
		func() Formula { return FIFOValues{A: core.Ref("A", "X"), PA: "v", B: core.Ref("B", "Y"), PB: "v"} },
		func() Formula { return FIFOValues{A: g.class(), PA: "v", B: g.class(), PB: "v"} },
		func() Formula {
			min := g.rng.Intn(5) - 2
			return CountDiff{A: g.class(), B: g.class(), Min: min, Max: min + g.rng.Intn(3), NoMax: g.rng.Intn(3) == 0}
		},
	}
	if len(g.evs) > 0 {
		atoms = append(atoms,
			func() Formula { return Occurred{Var: g.ev()} },
			func() Formula { return Occurred{Var: g.ev()} },
			func() Formula { return New{Var: g.ev()} },
			func() Formula { return Potential{Var: g.ev()} },
			func() Formula { return AtControl{Var: g.ev(), Ref: g.class()} },
			func() Formula { return AtElement{Var: g.ev(), Element: string(rune('A' + g.rng.Intn(3)))} },
			func() Formula { return InClass{Var: g.ev(), Ref: g.class()} },
			func() Formula { return Enables{X: g.ev(), Y: g.ev()} },
			func() Formula { return ElemOrdered{X: g.ev(), Y: g.ev()} },
			func() Formula { return Precedes{X: g.ev(), Y: g.ev()} },
			func() Formula { return ConcurrentWith{X: g.ev(), Y: g.ev()} },
			func() Formula { return SameEvent{X: g.ev(), Y: g.ev()} },
			func() Formula { return ParamCmp{X: g.ev(), P: "v", Op: op(), Y: g.ev(), Q: "v"} },
			func() Formula { return ParamConst{X: g.ev(), P: "v", Op: op(), V: core.Int(int64(g.rng.Intn(3)))} },
		)
	}
	if len(g.ths) > 0 {
		atoms = append(atoms, func() Formula { return ThreadsDistinct{T1: g.th(), T2: g.th()} })
		if len(g.evs) > 0 {
			atoms = append(atoms,
				func() Formula { return OnThread{X: g.ev(), T: g.th()} },
				func() Formula { return OnThread{X: g.ev(), T: g.th()} },
			)
		}
	}
	return atoms[g.rng.Intn(len(atoms))]()
}

// threadedComp is randomComp with thread labels: events carry zero, one
// or two instances of thread types T and U.
func threadedComp(rng *rand.Rand, maxN int) *core.Computation {
	n := 2 + rng.Intn(maxN-1)
	b := core.NewBuilder()
	ids := make([]core.EventID, n)
	for i := 0; i < n; i++ {
		elem := string(rune('A' + rng.Intn(3)))
		class := string(rune('X' + rng.Intn(2)))
		ids[i] = b.Event(elem, class, core.Params{"v": core.Int(int64(rng.Intn(3)))})
		for k := rng.Intn(3); k > 0; k-- {
			b.Thread(ids[i], ThreadID(genThreadTypes[rng.Intn(2)], 1+rng.Intn(2)))
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.25 {
				b.Enable(ids[i], ids[j])
			}
		}
	}
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

// TestHistEvalMatchesEval is the lattice evaluator's oracle test: over
// random computations and random immediate formulas, bit i of the
// evaluator's result must equal Formula.Eval at history i, for every
// history of the lattice. The generator must have drawn every node kind.
func TestHistEvalMatchesEval(t *testing.T) {
	seen := map[string]bool{}
	mixed := 0
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := threadedComp(rng, 7)
		g := &immGen{rng: rng, seen: seen}
		f := g.formula(1 + rng.Intn(4))
		ev := newHistEval(c)
		env := &Env{C: c}
		got := ev.sat(f, env)
		if env.H.Computation() != nil {
			t.Fatalf("seed %d: sat moved the caller's environment", seed)
		}
		for i, h := range ev.hs {
			if want := f.Eval(NewEnv(h)); got.Has(i) != want {
				t.Fatalf("seed %d: %s at history %d %s: evaluator says %v, Eval says %v",
					seed, f, i, h, got.Has(i), want)
			}
		}
		if n := got.Count(); n > 0 && n < len(ev.hs) {
			mixed++
		}
	}
	for _, kind := range []string{
		"Occurred", "New", "Potential", "AtControl", "CountDiff", "FIFOValues",
		"AtElement", "InClass", "Enables", "ElemOrdered", "Precedes", "ConcurrentWith",
		"SameEvent", "ParamCmp", "ParamConst", "OnThread", "ThreadsDistinct", "TrueF", "FalseF",
		"Not", "And", "Or", "Implies", "Iff",
		"ForAll", "Exists", "ExistsUnique", "AtMostOne", "ForAllIn", "ExistsUniqueIn",
		"ForAllThread", "ExistsThread",
	} {
		if !seen["logic."+kind] {
			t.Errorf("generator never drew a %s node", kind)
		}
	}
	for _, kind := range []string{"empty domain", "empty thread domain"} {
		if !seen[kind] {
			t.Errorf("generator never drew a quantifier over an %s", kind)
		}
	}
	// Formulas true or false at every history alike would not tell the
	// evaluator's per-history bits apart.
	if mixed < 200 {
		t.Errorf("only %d of 2000 formulas split the lattice", mixed)
	}
}

// TestHoldsOnHistoriesReportsFirstFailure pins the □-invariant's witness:
// the lowest-index failing history of the lattice, as the per-history
// loop found it.
func TestHoldsOnHistoriesReportsFirstFailure(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := threadedComp(rng, 6)
		f := (&immGen{rng: rng}).formula(3)
		var want *history.History
		for _, h := range history.Shared(c).Histories() {
			if !f.Eval(NewEnv(h)) {
				h := h
				want = &h
				break
			}
		}
		cx := holdsOnHistories(f, c)
		switch {
		case want == nil && cx != nil:
			t.Fatalf("seed %d: %s holds everywhere, got witness %s", seed, f, cx.History)
		case want != nil && cx == nil:
			t.Fatalf("seed %d: %s fails at %s, got no witness", seed, f, want)
		case want != nil && !cx.History.Equal(*want):
			t.Fatalf("seed %d: %s: witness %s, want first failure %s", seed, f, cx.History, want)
		}
	}
}
