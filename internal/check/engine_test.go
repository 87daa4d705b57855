package check

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"gem/internal/core"
	"gem/internal/logic"
	"gem/internal/verify"
)

// Spec-level counter-verification of the production engine: every
// shipped problem specification, checked over its exhaustively explored
// solutions and over the failing mutants, must report identical verdicts
// under auto and the seq oracle, and every counterexample must
// independently falsify its restriction. Witness identity is NOT
// required: the lattice engine extracts its own failing sequence from
// the history lattice, while seq reports the first one in enumeration
// order.

// engines are the production engine and the oracle.
var engines = []logic.Engine{logic.EngineSeq, logic.EngineAuto}

// TestMatrixEngineAgreement explores each of the nine matrix cells once
// and sat-checks its runs under seq and auto, requiring a pass from each.
func TestMatrixEngineAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive matrix cells are slow; skipped in -short mode")
	}
	for _, s := range Matrix() {
		s := s
		t.Run(s.Problem+"/"+string(s.Language), func(t *testing.T) {
			problem, corr, err := s.Setup()
			if err != nil {
				t.Fatal(err)
			}
			var comps []*core.Computation
			truncated, err := s.Stream(func(c *core.Computation) bool {
				comps = append(comps, c)
				return true
			})
			if err != nil || truncated {
				t.Fatalf("exploration: truncated=%v err=%v", truncated, err)
			}
			for _, engine := range engines {
				if idx, res := verify.CheckAll(problem, comps, corr, logic.CheckOptions{Engine: engine}); idx >= 0 {
					t.Errorf("engine %s fails computation %d of %d: %v", engine, idx, len(comps), res.Error())
				}
			}
		})
	}
}

// TestRefutationEngineAgreement: the failing mutants are refuted at the
// same computation index, blaming the same restrictions, under every
// engine — and each engine's counterexample is genuine: its witness
// falsifies the restriction formula (Counterexample.Verify).
func TestRefutationEngineAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("mutant explorations are slow; skipped in -short mode")
	}
	for _, r := range Refutations() {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			problem, comps, corr, err := r.Build()
			if err != nil {
				t.Fatal(err)
			}
			seqIdx, seqRes := verify.CheckAll(problem, comps, corr, logic.CheckOptions{Engine: logic.EngineSeq})
			if seqIdx < 0 {
				t.Fatal("mutant not refuted under seq engine")
			}
			for _, engine := range engines {
				idx, res := verify.CheckAll(problem, comps, corr, logic.CheckOptions{Engine: engine})
				if idx != seqIdx {
					t.Fatalf("engine %s refutes at index %d, seq at %d", engine, idx, seqIdx)
				}
				if got, want := blamed(res), blamed(seqRes); got != want {
					t.Errorf("engine %s blames %q, seq blames %q", engine, got, want)
				}
				for _, v := range res.Legality.Violations {
					if err := v.Cx.Verify(); err != nil {
						t.Errorf("engine %s reported a bogus counterexample for %s: %v",
							engine, v.Restriction, err)
					}
				}
			}
		})
	}
}

// blamed renders the restriction-level blame of a refutation — which
// restrictions of which owners failed — without the witness text, which
// legitimately differs across engines.
func blamed(res verify.Result) string {
	var parts []string
	for _, v := range res.Legality.Violations {
		parts = append(parts, fmt.Sprintf("%s:%s/%s", v.Kind, v.Owner, v.Restriction))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
