package lint_test

import (
	"testing"

	"gem/internal/lint"
	"gem/internal/problems/boundedbuf"
	"gem/internal/problems/dbupdate"
	"gem/internal/problems/oneslot"
	"gem/internal/problems/rw"
	"gem/internal/spec"
)

// TestShippedSpecsLintClean asserts every problem specification the repo
// ships produces zero lint errors. Warnings are tolerated (dbupdate
// intentionally declares per-site classes that only the computation
// builder touches) but errors would mean the linter flags known-good
// specs, which is the cardinal false-positive failure mode.
func TestShippedSpecsLintClean(t *testing.T) {
	mustSpec := func(s *spec.Spec, err error) *spec.Spec {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	specs := map[string]*spec.Spec{
		"rw":         mustSpec(rw.ProblemSpec([]string{"r1", "r2", "w1"}, true)),
		"rw-nopri":   mustSpec(rw.ProblemSpec([]string{"r1", "w1"}, false)),
		"boundedbuf": mustSpec(boundedbuf.ProblemSpec(boundedbuf.Workload{Producers: 2, Consumers: 1, ItemsPerProducer: 2, Capacity: 2})),
		"oneslot":    mustSpec(oneslot.ProblemSpec(oneslot.Workload{Producers: 1, Consumers: 1, ItemsPerProducer: 2})),
		"dbupdate": dbupdate.Spec(dbupdate.Config{
			Sites:   2,
			Updates: []dbupdate.Update{{Site: 0, Value: 1}},
		}),
	}
	for name, s := range specs {
		res := lint.Analyze(s)
		if errs := res.Errors(); len(errs) > 0 {
			for _, d := range errs {
				t.Errorf("%s: unexpected lint error: %s", name, d)
			}
		}
		for _, ec := range res.Constraints {
			if ec.Doomed {
				t.Errorf("%s: constraint %s of %s/%s marked doomed in a known-good spec",
					name, ec, ec.Owner, ec.Restriction)
			}
		}
	}
}

// TestForSpecMemoizes checks the cached entry is returned for repeat
// lookups of the same spec pointer.
func TestForSpecMemoizes(t *testing.T) {
	s, err := rw.ProblemSpec([]string{"r1", "w1"}, false)
	if err != nil {
		t.Fatal(err)
	}
	a := lint.ForSpec(s)
	b := lint.ForSpec(s)
	if a != b {
		t.Fatal("ForSpec did not memoize: distinct results for the same spec")
	}
}
