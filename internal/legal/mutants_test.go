package legal_test

import (
	"fmt"
	"reflect"
	"testing"

	"gem/internal/core"
	"gem/internal/legal"
	"gem/internal/lint"
	"gem/internal/logic"
	"gem/internal/problems/boundedbuf"
	"gem/internal/problems/rw"
	"gem/internal/spec"
)

// The tests in this file pin legal.Check's verdict on specifications that
// gemlint's static pass flags: a lint error must never change what the
// dynamic check decides, and the check blames the restriction the
// mutant added.

// violationKeys projects a result onto the (kind, owner, restriction)
// triples that identify which checks failed, ignoring messages.
func violationKeys(r legal.Result) []string {
	var keys []string
	for _, v := range r.Violations {
		keys = append(keys, fmt.Sprintf("%s/%s/%s", v.Kind, v.Owner, v.Restriction))
	}
	return keys
}

// requireBlames checks s on c and requires exactly the given violation
// keys, in order (none for a legal computation).
func requireBlames(t *testing.T, s *spec.Spec, c *core.Computation, want ...string) {
	t.Helper()
	if got := violationKeys(legal.Check(s, c, legal.Options{})); !reflect.DeepEqual(got, want) {
		t.Fatalf("violations = %v, want %v", got, want)
	}
}

func buildBoundedBuf(t *testing.T) (*spec.Spec, *core.Computation) {
	t.Helper()
	w := boundedbuf.Workload{Producers: 1, Consumers: 1, ItemsPerProducer: 2, Capacity: 2}
	s, err := boundedbuf.ProblemSpec(w)
	if err != nil {
		t.Fatal(err)
	}
	c, err := boundedbuf.BuildComputation(s, w)
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

// TestPrelintAgreesOnCleanSpecs: the shipped bounded-buffer spec lints
// without errors and its computation is legal.
func TestPrelintAgreesOnCleanSpecs(t *testing.T) {
	s, c := buildBoundedBuf(t)
	if errs := lint.Analyze(s).Errors(); len(errs) > 0 {
		t.Fatalf("clean boundedbuf spec has lint errors: %v", errs)
	}
	requireBlames(t, s, c)
}

// TestPrelintAgreesOnPrereqCycleMutant: adding the reverse prerequisite
// Fetch -> Deposit alongside Deposit -> Fetch dooms both classes
// statically (GEM004); the dynamic check fails the Fetch-first one, since
// the computation's Fetches are enabled by Deposits.
func TestPrelintAgreesOnPrereqCycleMutant(t *testing.T) {
	s, c := buildBoundedBuf(t)
	s.AddRestriction("mutant-fetch-first",
		logic.Prereq(core.Ref(boundedbuf.BufferElement, "Fetch"), core.Ref(boundedbuf.BufferElement, "Deposit")))
	s.AddRestriction("mutant-deposit-first",
		logic.Prereq(core.Ref(boundedbuf.BufferElement, "Deposit"), core.Ref(boundedbuf.BufferElement, "Fetch")))

	doomed := false
	for _, ec := range lint.Analyze(s).Constraints {
		doomed = doomed || ec.Doomed
	}
	if !doomed {
		t.Fatal("cycle mutant: lint marked no constraint doomed (GEM004 missed)")
	}
	requireBlames(t, s, c, "restriction-violation/BoundedBuffer/mutant-fetch-first")
}

// TestPrelintAgreesOnAccessMutant: requiring a user event to directly
// enable an event inside the db group's non-port member violates the
// Section 4 access relation (GEM005); the dynamic check fails the same
// restriction because no such enable edge can exist in the computation.
func TestPrelintAgreesOnAccessMutant(t *testing.T) {
	s, err := rw.ProblemSpec([]string{"u1", "w1"}, false)
	if err != nil {
		t.Fatal(err)
	}
	s.AddRestriction("mutant-direct-read",
		logic.Prereq(core.Ref("u1", "Read"), core.Ref("db.data", "Getval")))
	c, err := rw.BuildComputation(s, []rw.Transaction{
		{User: "u1", Write: false, After: -1},
		{User: "w1", Write: true, Value: 7, After: 0},
	})
	if err != nil {
		t.Fatal(err)
	}

	var sawAccess bool
	for _, d := range lint.Analyze(s).Errors() {
		sawAccess = sawAccess || d.Code == lint.CodeAccessForbidden
	}
	if !sawAccess {
		t.Fatal("access mutant: lint reported no GEM005 error")
	}
	requireBlames(t, s, c, "restriction-violation/RWProblem/mutant-direct-read")
}

// TestPrelintAgreesOnDanglingMutant: a restriction quantifying over an
// undeclared element is a lint error (GEM001) but holds dynamically,
// because its domain is empty: the lint error must not make the
// computation illegal.
func TestPrelintAgreesOnDanglingMutant(t *testing.T) {
	s, c := buildBoundedBuf(t)
	s.AddRestriction("mutant-phantom",
		logic.ForAll{Var: "x", Ref: core.Ref("phantom", "Ev"), Body: logic.Occurred{Var: "x"}})

	if len(lint.Analyze(s).Errors()) == 0 {
		t.Fatal("dangling mutant: lint reported no error")
	}
	requireBlames(t, s, c)
}
