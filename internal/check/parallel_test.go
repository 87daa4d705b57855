package check

import (
	"runtime"
	"testing"

	"gem/internal/history"
	"gem/internal/legal"
	"gem/internal/logic"
	"gem/internal/problems/rw"
	"gem/internal/spec"
	"gem/internal/thread"
	"gem/internal/verify"
)

// withProcs raises GOMAXPROCS so the parallel engine actually fans out
// even on a single-core host.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestMatrixParallelDeterminism: every readers-writers and bounded-buffer
// cell reports the same verdict and run count at Parallelism 1 and 4, and
// so does a failing cell (the writers-priority monitor against the
// readers-priority spec), down to its error string.
func TestMatrixParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive matrix cells are slow; skipped in -short mode")
	}
	withProcs(t, 4)
	type cell struct {
		name  string
		s     Scenario
		fails bool
	}
	var cells []cell
	for _, s := range Matrix() {
		if s.Problem == "readers-writers" || s.Problem == "bounded-buffer" {
			cells = append(cells, cell{s.Problem + "/" + string(s.Language), s, false})
		}
	}
	wp := Scenario{
		Problem:  "readers-writers",
		Language: Monitor,
		Setup: func() (*spec.Spec, verify.Correspondence, error) {
			problem, err := rw.ProblemSpec([]string{"r1", "r2", "w1"}, true)
			return problem, rw.MonitorCorrespondence(), err
		},
		Stream: stream(rw.NewProgram(rw.WritersPriority, rw.Workload{Readers: 2, Writers: 1})),
	}
	cells = append(cells, cell{"writers-priority-monitor/readers-priority-spec", wp, true})
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			seq := c.s.Run(Options{Parallelism: 1})
			par := c.s.Run(Options{Parallelism: 4})
			if seq.Verified != par.Verified {
				t.Fatalf("verdicts differ: sequential %v (%v), parallel %v (%v)",
					seq.Verified, seq.Err, par.Verified, par.Err)
			}
			if seq.Verified == c.fails {
				t.Fatalf("verified = %v, want %v (%v)", seq.Verified, !c.fails, seq.Err)
			}
			if seq.Runs != par.Runs {
				t.Errorf("run counts differ: sequential %d, parallel %d", seq.Runs, par.Runs)
			}
			if c.fails && seq.Err.Error() != par.Err.Error() {
				t.Errorf("errors differ:\nsequential: %v\nparallel:   %v", seq.Err, par.Err)
			}
		})
	}
}

// TestRefutationParallelDeterminism: the failing mutants are refuted at
// the same (lowest) computation index, with the same error, at any
// parallelism (S3).
func TestRefutationParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("mutant explorations are slow; skipped in -short mode")
	}
	withProcs(t, 4)
	for _, r := range Refutations() {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			problem, comps, corr, err := r.Build()
			if err != nil {
				t.Fatal(err)
			}
			seqIdx, seqRes := verify.CheckAll(problem, comps, corr, logic.CheckOptions{Parallelism: 1})
			if seqIdx < 0 {
				t.Fatal("mutant not refuted sequentially")
			}
			for trial := 0; trial < 3; trial++ {
				parIdx, parRes := verify.CheckAll(problem, comps, corr, logic.CheckOptions{Parallelism: 4})
				if parIdx != seqIdx {
					t.Fatalf("first-failure index differs: sequential %d, parallel %d", seqIdx, parIdx)
				}
				if seqRes.Error().Error() != parRes.Error().Error() {
					t.Fatalf("counterexamples differ:\nsequential: %v\nparallel:   %v",
						seqRes.Error(), parRes.Error())
				}
			}
		})
	}
}

// TestLegalParallelDeterminism: one legality check of a refuted
// computation enumerates the history lattice at most once even though
// several restrictions consult it.
func TestLegalParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("mutant exploration is slow; skipped in -short mode")
	}
	r := Refutations()[0] // writers-priority monitor vs readers-priority spec
	problem, comps, corr, err := r.Build()
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := verify.CheckAll(problem, comps, corr, logic.CheckOptions{})
	if idx < 0 {
		t.Fatal("mutant not refuted")
	}
	// Project afresh so the check starts with a cold lattice cache.
	proj, err := verify.Project(comps[idx], corr)
	if err != nil {
		t.Fatal(err)
	}
	thread.Apply(proj.Comp, problem.Threads()...)
	before := history.LatticeBuilds()
	res := legal.Check(problem, proj.Comp, legal.Options{})
	if d := history.LatticeBuilds() - before; d > 1 {
		t.Errorf("lattice enumerated %d times in one legality check, want at most 1", d)
	}
	if res.Legal() {
		t.Fatal("expected violations on the refuted computation")
	}
}
