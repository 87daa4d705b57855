package legal_test

import (
	"math/rand"
	"reflect"
	"testing"

	"gem/internal/core"
	"gem/internal/legal"
	"gem/internal/logic"
	"gem/internal/problems/rw"
	"gem/internal/spec"
	"gem/internal/thread"
)

func buildRW(t *testing.T) (*spec.Spec, *core.Computation) {
	t.Helper()
	s, err := rw.ProblemSpec([]string{"u1", "w1"}, false)
	if err != nil {
		t.Fatal(err)
	}
	c, err := rw.BuildComputation(s, []rw.Transaction{
		{User: "u1", Write: false, After: -1},
		{User: "w1", Write: true, Value: 7, After: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

// randomComputation builds a small random computation over the spec's
// declared class pairs (with an occasional phantom undeclared class),
// forward-only random enable edges (acyclic by construction), and the
// spec's thread labelling applied.
func randomComputation(t *testing.T, s *spec.Spec, rng *rand.Rand) *core.Computation {
	t.Helper()
	pairs := s.ClassPairs()
	b := core.NewBuilder()
	n := 3 + rng.Intn(6)
	ids := make([]core.EventID, 0, n)
	for i := 0; i < n; i++ {
		el, cl := "phantom", "Ev"
		if rng.Intn(10) != 0 {
			p := pairs[rng.Intn(len(pairs))]
			el, cl = p.Element, p.Class
		}
		ids = append(ids, b.Event(el, cl, nil))
	}
	for i := 1; i < len(ids); i++ {
		for j := 0; j < i; j++ {
			if rng.Intn(3) == 0 {
				b.Enable(ids[j], ids[i])
			}
		}
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	thread.Apply(c, s.Threads()...)
	return c
}

// checkVariantsAgree checks c against s with the default options and
// with the seq oracle, which must reproduce the default verdict and
// failing-restriction set. It returns the default result.
func checkVariantsAgree(t *testing.T, name string, s *spec.Spec, c *core.Computation) legal.Result {
	t.Helper()
	plain := legal.Check(s, c, legal.Options{})
	got := legal.Check(s, c, legal.Options{Check: logic.CheckOptions{Engine: logic.EngineSeq}})
	if plain.Legal() != got.Legal() || !reflect.DeepEqual(violationKeys(plain), violationKeys(got)) {
		t.Fatalf("%s/seq: engine changed the violation set:\nplain: %v\ngot:   %v",
			name, violationKeys(plain), violationKeys(got))
	}
	return plain
}

// The two tests below keep the names they had when the variants also
// included a guard fast path that skipped restriction enumerations.

// TestFastPathAgreesOnShippedSpecs: the shipped problem specs' own
// computations stay legal under every option variant.
func TestFastPathAgreesOnShippedSpecs(t *testing.T) {
	s, c := buildBoundedBuf(t)
	if res := checkVariantsAgree(t, "boundedbuf", s, c); !res.Legal() {
		t.Fatalf("boundedbuf judged illegal: %v", res.Violations)
	}
	s, c = buildRW(t)
	if res := checkVariantsAgree(t, "rw", s, c); !res.Legal() {
		t.Fatalf("rw judged illegal: %v", res.Violations)
	}
}

// TestFastPathAgreesOnRandomComputations: over 60 random computations per
// shipped problem spec, most of them illegal in varied ways, every option
// variant yields the default verdict and violation set.
func TestFastPathAgreesOnRandomComputations(t *testing.T) {
	sBuf, _ := buildBoundedBuf(t)
	sRW, _ := buildRW(t)
	rng := rand.New(rand.NewSource(20260806))
	for _, tc := range []struct {
		name string
		s    *spec.Spec
	}{{"boundedbuf", sBuf}, {"rw", sRW}} {
		for i := 0; i < 60; i++ {
			checkVariantsAgree(t, tc.name, tc.s, randomComputation(t, tc.s, rng))
		}
	}
}
