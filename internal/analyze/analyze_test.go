package analyze

import (
	"strings"
	"testing"

	"gem/internal/core"
	"gem/internal/lint"
	"gem/internal/logic"
)

func refs(gs guardSet) string { return gs.String() }

// TestValidGuards exercises the emptiness-guard calculus on the formula
// shapes the restriction language produces: each case lists the guard
// alternatives under which the formula is statically TRUE.
func TestValidGuards(t *testing.T) {
	aGo := core.Ref("a", "Go")
	bGo := core.Ref("b", "Go")
	cases := []struct {
		name string
		f    logic.Formula
		want []string // String() of each alternative, any order; nil = not decisive
	}{
		{"true", logic.TrueF{}, []string{"{}"}},
		{"forall", logic.ForAll{Var: "x", Ref: aGo, Body: logic.FalseF{}}, []string{"{a.Go}"}},
		{"prereq", logic.Prereq(aGo, bGo), []string{"{a.Go, b.Go}"}},
		{"atmostone", logic.AtMostOne{Var: "x", Ref: aGo, Body: logic.TrueF{}}, []string{"{a.Go}"}},
		{"forallthread", logic.ForAllThread{Var: "t", Type: "pi", Body: logic.FalseF{}},
			[]string{"{thread pi}"}},
		{"not-exists", logic.Not{F: logic.Exists{Var: "x", Ref: aGo, Body: logic.TrueF{}}},
			[]string{"{a.Go}"}},
		{"and", logic.And{logic.Prereq(aGo, bGo), logic.Prereq(bGo, aGo)},
			[]string{"{a.Go, b.Go}"}},
		{"or", logic.Or{logic.Prereq(aGo, bGo), logic.Prereq(bGo, aGo)},
			[]string{"{a.Go, b.Go}", "{a.Go, b.Go}"}},
		{"implies", logic.Implies{
			If:   logic.Exists{Var: "x", Ref: aGo, Body: logic.TrueF{}},
			Then: logic.Prereq(aGo, bGo)},
			[]string{"{a.Go}", "{a.Go, b.Go}"}},
		{"box", logic.Box{F: logic.Prereq(aGo, bGo)}, []string{"{a.Go, b.Go}"}},
		{"countdiff-holds-empty", logic.CountDiff{A: aGo, B: bGo, Min: 0, Max: 2}, []string{"{a.Go, b.Go}"}},
		{"countdiff-min-pos", logic.CountDiff{A: aGo, B: bGo, Min: 1, NoMax: true}, nil},
		{"exists-not-decisive", logic.Exists{Var: "x", Ref: aGo, Body: logic.TrueF{}}, nil},
		{"occurred-not-decisive", logic.Occurred{Var: "x"}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := validGuards(tc.f)
			if len(got) != len(tc.want) {
				t.Fatalf("validGuards: got %d alternatives %v, want %d %v",
					len(got), renderAlts(got), len(tc.want), tc.want)
			}
			for _, w := range tc.want {
				if !containsAlt(got, w) {
					t.Errorf("validGuards missing alternative %q; got %v", w, renderAlts(got))
				}
			}
		})
	}
}

// TestFalseGuards: the dual — alternatives under which the formula is
// statically FALSE.
func TestFalseGuards(t *testing.T) {
	aGo := core.Ref("a", "Go")
	bGo := core.Ref("b", "Go")
	cases := []struct {
		name string
		f    logic.Formula
		want []string
	}{
		{"false", logic.FalseF{}, []string{"{}"}},
		{"exists", logic.Exists{Var: "x", Ref: aGo, Body: logic.TrueF{}}, []string{"{a.Go}"}},
		{"existsunique", logic.ExistsUnique{Var: "x", Ref: aGo, Body: logic.TrueF{}}, []string{"{a.Go}"}},
		{"existsthread", logic.ExistsThread{Var: "t", Type: "pi", Body: logic.TrueF{}},
			[]string{"{thread pi}"}},
		{"not-forall", logic.Not{F: logic.ForAll{Var: "x", Ref: aGo, Body: logic.FalseF{}}},
			[]string{"{a.Go}"}},
		{"or", logic.Or{
			logic.Exists{Var: "x", Ref: aGo, Body: logic.TrueF{}},
			logic.Exists{Var: "x", Ref: bGo, Body: logic.TrueF{}}},
			[]string{"{a.Go, b.Go}"}},
		{"countdiff-min-pos", logic.CountDiff{A: aGo, B: bGo, Min: 1, NoMax: true}, []string{"{a.Go, b.Go}"}},
		{"forall-not-refutable", logic.ForAll{Var: "x", Ref: aGo, Body: logic.FalseF{}}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := falseGuards(tc.f)
			if len(got) != len(tc.want) {
				t.Fatalf("falseGuards: got %d alternatives %v, want %d %v",
					len(got), renderAlts(got), len(tc.want), tc.want)
			}
			for _, w := range tc.want {
				if !containsAlt(got, w) {
					t.Errorf("falseGuards missing alternative %q; got %v", w, renderAlts(got))
				}
			}
		})
	}
}

func renderAlts(gs []guardSet) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = refs(g.normalize())
	}
	return out
}

func containsAlt(gs []guardSet, want string) bool {
	for _, g := range gs {
		if refs(g.normalize()) == want {
			return true
		}
	}
	return false
}

// deepSource runs the deep analyzer over inline GEM source and returns
// the deep diagnostics only.
func deepSource(t *testing.T, src string) []lint.Diagnostic {
	t.Helper()
	res, err := AnalyzeSource(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return res.Deep
}

func wantOneCode(t *testing.T, diags []lint.Diagnostic, code lint.Code, msgFragment string) {
	t.Helper()
	n := 0
	for _, d := range diags {
		if d.Code == code {
			n++
			if !strings.Contains(d.Message, msgFragment) {
				t.Errorf("%s message %q missing %q", code, d.Message, msgFragment)
			}
			if d.Pos.Line == 0 {
				t.Errorf("%s diagnostic has no source position", code)
			}
		}
	}
	if n != 1 {
		t.Errorf("want exactly one %s, got %d in %v", code, n, diags)
	}
}

func TestDeepCodesInline(t *testing.T) {
	t.Run("GEM009", func(t *testing.T) {
		diags := deepSource(t, `SPEC s
ELEMENT a
  EVENTS
    Go
END
ELEMENT b
  EVENTS
    Go
END
RESTRICTION "one": PREREQ(a.Go -> b.Go) ;
RESTRICTION "two": PREREQ(b.Go -> a.Go) ;
RESTRICTION "must": (EXISTS e: b.Go) occurred(e) ;
`)
		wantOneCode(t, diags, lint.CodeContradiction, "statically unsatisfiable")
	})
	t.Run("GEM010", func(t *testing.T) {
		diags := deepSource(t, `SPEC s
ELEMENT a
  EVENTS
    Req
    Go
END
ELEMENT b
  EVENTS
    Req
    Go
END
THREAD piA = (a.Req :: a.Go)
THREAD piB = (b.Req :: b.Go)
RESTRICTION "w1": PREREQ(b.Go -> a.Go) ;
RESTRICTION "w2": PREREQ(a.Go -> b.Req) ;
`)
		wantOneCode(t, diags, lint.CodeDeadlock, "possible static deadlock")
	})
	t.Run("GEM011", func(t *testing.T) {
		diags := deepSource(t, `SPEC s
ELEMENT outside
  EVENTS
    Poke
END
ELEMENT inner
  EVENTS
    Work
END
ELEMENT next
  EVENTS
    Act
END
GROUP box MEMBERS(inner) END
RESTRICTION "blocked": PREREQ(outside.Poke -> inner.Work) ;
RESTRICTION "chained": PREREQ(inner.Work -> next.Act) ;
`)
		wantOneCode(t, diags, lint.CodeUnreachable, "no legal enable chain")
	})
	t.Run("GEM012", func(t *testing.T) {
		diags := deepSource(t, `SPEC s
ELEMENT a
  EVENTS
    Go
END
ELEMENT b
  EVENTS
    Go
END
RESTRICTION "first": PREREQ(a.Go -> b.Go) ;
RESTRICTION "second": PREREQ(a.Go -> b.Go) ;
`)
		wantOneCode(t, diags, lint.CodeRedundant, "redundant")
	})
}
