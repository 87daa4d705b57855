package main

import (
	"context"
	"fmt"
	"io"
	"strings"

	"gem/internal/check"
	"gem/internal/core"
	"gem/internal/logic"
	"gem/internal/obs"
	"gem/internal/spec"
	"gem/internal/verify"
)

// matrixWorkload is the paper's Section 11 claim: one pass is what
// `gemverify -j 1 -cache off` computes — the nine-cell verification
// matrix, then the two negative controls — with its table discarded.
type matrixWorkload struct{}

// matrixRuns is the known answer per cell, in check.Matrix order: the
// number of distinct computations each solution has (EXPERIMENTS E7).
var matrixRuns = []int{5, 10, 72, 1, 4, 22, 1, 4, 22}

// matrixRefutations is the known answer for the negative controls: the
// first refuting computation and the number of computations explored.
var matrixRefutations = []struct {
	name        string
	index, runs int
}{
	{"writers-priority-monitor vs readers-priority-spec", 6, 66},
	{"unguarded-deposit vs capacity-spec", 0, 10},
}

// matrixChecks is the number of sat checks one pass completes: every run
// of every cell, and each control's runs up to its first refutation.
func matrixChecks() int {
	n := 0
	for _, r := range matrixRuns {
		n += r
	}
	for _, r := range matrixRefutations {
		n += r.index + 1
	}
	return n
}

// refutationLine is the line check.RunRefutations prints for a refuted
// control.
func refutationLine(name string, index, of int) string {
	return fmt.Sprintf("%-55s refuted as expected (computation %d of %d)\n", name, index, of)
}

// setup explores every cell and control once and checks that each
// explorer emits exactly the known number of distinct computations.
func (w *matrixWorkload) setup() error {
	for i, s := range check.Matrix() {
		var comps []*core.Computation
		if _, err := s.Stream(func(c *core.Computation) bool {
			comps = append(comps, c)
			return true
		}); err != nil {
			return err
		}
		if got := distinct(comps); got != matrixRuns[i] || len(comps) != matrixRuns[i] {
			return fmt.Errorf("%s/%s: %d computations, %d distinct; want %d", s.Problem, s.Language, len(comps), got, matrixRuns[i])
		}
	}
	for i, r := range check.Refutations() {
		_, comps, _, err := r.Build()
		if err != nil {
			return err
		}
		if got, want := distinct(comps), matrixRefutations[i].runs; got != want || len(comps) != want {
			return fmt.Errorf("%s: %d computations, %d distinct; want %d", r.Name, len(comps), got, want)
		}
	}
	return nil
}

func distinct(comps []*core.Computation) int {
	seen := map[string]bool{}
	for _, c := range comps {
		seen[core.Fingerprint(c)] = true
	}
	return len(seen)
}

func cellLine(problem string, lang check.Language, runs int, verified bool) string {
	return fmt.Sprintf("%s/%s runs=%d verified=%t\n", problem, lang, runs, verified)
}

// mismatches counts the cells and controls that differ from the known
// answer.
func (w *matrixWorkload) mismatches(cells []string, refutations string) int {
	n := 0
	want := matrixWant()
	for i := range want {
		if i >= len(cells) || cells[i] != want[i] {
			n++
		}
	}
	if len(cells) > len(want) {
		n += len(cells) - len(want)
	}
	lines := strings.SplitAfter(refutations, "\n")
	for i, r := range matrixRefutations {
		if i >= len(lines) || lines[i] != refutationLine(r.name, r.index, r.runs) {
			n++
		}
	}
	return n
}

func matrixWant() []string {
	var want []string
	for i, s := range check.Matrix() {
		want = append(want, cellLine(s.Problem, s.Language, matrixRuns[i], true))
	}
	return want
}

func (w *matrixWorkload) pass() (outcome, error) {
	opts := check.Options{Parallelism: 1}
	cells, err := check.RunMatrixCells(io.Discard, opts)
	if err != nil {
		return outcome{}, err
	}
	var sb strings.Builder
	if err := check.RunRefutations(&sb, opts); err != nil {
		return outcome{}, err
	}
	var lines []string
	for _, c := range cells {
		lines = append(lines, cellLine(c.Scenario.Problem, c.Scenario.Language, c.Runs, c.Verified))
	}
	return outcome{
		checks:     matrixChecks(),
		mismatches: w.mismatches(lines, sb.String()),
		verdicts:   strings.Join(lines, "") + sb.String(),
	}, nil
}

// tracedPass runs the same matrix through the program's own functions,
// with the calls they make into each layer wrapped in the benchmark's
// spans: per cell Scenario.Run at Parallelism 1, with its Setup (check)
// and Stream (explore) wrapped; per control Refutation.Build (explore)
// followed by verify.CheckAll (verify). Scenario.Run opens a
// "scenario ..." span of its own; the wrapped calls open context-free
// spans, so they are charged to it, and what the scenario span covers
// beyond them is sat checking.
func (w *matrixWorkload) tracedPass(ctx context.Context) (outcome, error) {
	var lines []string
	var refutations strings.Builder
	var explored [][]*core.Computation
	var exploreAlloc uint64
	explore := func(ctx context.Context, f func() ([]*core.Computation, error)) error {
		_, sp := obs.StartSpan(ctx, "bench.explore")
		a0 := heapAllocBytes()
		comps, err := f()
		exploreAlloc += heapAllocBytes() - a0
		sp.End()
		explored = append(explored, comps)
		return err
	}
	opts := check.Options{Parallelism: 1, Ctx: ctx}
	for _, s := range check.Matrix() {
		setup, stream := s.Setup, s.Stream
		s.Setup = func() (*spec.Spec, verify.Correspondence, error) {
			_, sp := obs.StartSpan(nil, "bench.check.setup")
			defer sp.End()
			return setup()
		}
		s.Stream = func(yield func(*core.Computation) bool) (truncated bool, err error) {
			err = explore(nil, func() ([]*core.Computation, error) {
				var comps []*core.Computation
				var err error
				truncated, err = stream(func(c *core.Computation) bool {
					comps = append(comps, c)
					return yield(c)
				})
				return comps, err
			})
			return truncated, err
		}
		cell := s.Run(opts)
		lines = append(lines, cellLine(s.Problem, s.Language, cell.Runs, cell.Verified))
	}
	for _, r := range check.Refutations() {
		var problem *spec.Spec
		var comps []*core.Computation
		var corr verify.Correspondence
		err := explore(ctx, func() ([]*core.Computation, error) {
			var err error
			problem, comps, corr, err = r.Build()
			return comps, err
		})
		if err != nil {
			return outcome{}, err
		}
		vctx, sp := obs.StartSpan(ctx, "bench.verify.check")
		idx, _ := verify.CheckAll(problem, comps, corr, logic.CheckOptions{Parallelism: opts.Parallelism, Ctx: vctx})
		sp.End()
		if idx < 0 {
			fmt.Fprintf(&refutations, "%-55s NOT refuted (%d computations) — matrix broken\n", r.Name, len(comps))
			continue
		}
		refutations.WriteString(refutationLine(r.Name, idx, len(comps)))
	}
	return outcome{
		checks:     matrixChecks(),
		mismatches: w.mismatches(lines, refutations.String()),
		verdicts:   strings.Join(lines, "") + refutations.String(),
		layer:      map[string]float64{"explore.alloc_mb": float64(exploreAlloc) / 1e6},
		post: func(layer map[string]float64) {
			for _, comps := range explored {
				layer["explore.runs"] += float64(len(comps))
				layer["explore.distinct"] += float64(distinct(comps))
			}
		},
	}, nil
}

func (w *matrixWorkload) exact() []string {
	return []string{"sat.checks", "lattice.histories", "engine.lattice.pass", "engine.lattice.fallback", "explore.distinct"}
}

func (w *matrixWorkload) pinned() map[string]int64 {
	return map[string]int64{
		"sat.checks":              int64(matrixChecks()),
		"lattice.histories":       7680,
		"engine.lattice.pass":     122,
		"engine.lattice.fallback": 0,
		"explore.distinct":        217,
	}
}

func (w *matrixWorkload) close() {}
