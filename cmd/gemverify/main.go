// Command gemverify runs the paper's Section 11 verification matrix: the
// Monitor, CSP, and ADA solutions of the One-Slot Buffer, Bounded Buffer,
// and Reader's-Priority Readers/Writers problems, each exhaustively
// explored and checked against its GEM problem specification with the
// Section 9 sat methodology. Exits non-zero if any cell fails.
//
// The -j flag (default NumCPU) sets the checking parallelism: runs are
// streamed out of the simulators into a pool of sat-check workers that
// share each computation's memoized history lattice. -j1 reproduces the
// sequential engine exactly; any -j reports the same verdicts and the
// same first-failure computation index.
//
// The -engine flag selects the temporal evaluation engine: auto (the
// default) evaluates every temporal restriction with the lattice
// fixpoint engine — which now covers the full restriction language and
// extracts its own counterexamples from the history lattice — and falls
// back to sequence enumeration only when the engine's bounds are
// inconclusive; lattice forces the fixpoint engine (same fallback rule,
// with fallbacks observable on the engine.lattice.fallback -stats
// counter); seq is the historical sequence engine, kept as the
// agreement-test oracle. All engines report the same verdicts; witness
// shapes may differ, but every counterexample is a genuine failing
// history. -cpuprofile and -memprofile write pprof profiles for
// performance work; -trace writes a Chrome trace-event JSON file (load
// in chrome://tracing or Perfetto) and -stats prints span/counter
// statistics to stderr.
//
// The -cache flag (off, ro, or rw; default rw) controls the persistent
// result store behind incremental checking: restriction verdicts,
// whole-check sat records, and history-lattice artifacts are
// keyed by content hashes of the canonical spec and the computation
// fingerprint, so a repeat run against an unchanged spec serves verdicts
// from disk instead of re-evaluating. -cache-dir overrides the location
// (default $GEM_CACHE_DIR, else the user cache dir); GEM_CACHE_BUDGET
// bounds the cache size in bytes. Verdicts, counterexample renderings,
// and exit codes are identical with the cache on, off, warm, or cold.
//
// -sarif writes the matrix outcome as a SARIF log: one GEM017 result per
// failed cell, an empty result set for a fully verified matrix.
//
// SIGINT (Ctrl-C) interrupts the run cleanly: exploration and checking
// stop promptly, the command exits non-zero with an "interrupted"
// error, and any requested profile, trace, and stats files are still
// flushed — so a too-long run can be interrupted and profiled anyway.
package main

import (
	"flag"
	"fmt"
	"os"

	"gem/internal/check"
	"gem/internal/lint"
	"gem/internal/profiling"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gemverify:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("gemverify", flag.ContinueOnError)
	pf := profiling.Register(fs, profiling.Jobs|profiling.Engine|profiling.Profile|profiling.Cache)
	sarif := fs.String("sarif", "", "write the matrix outcome as SARIF to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop, err := pf.Start()
	if err != nil {
		return err
	}
	defer stop(&err)
	_, cache, err := pf.Store()
	if err != nil {
		return err
	}

	opts := check.Options{Parallelism: pf.Jobs, Engine: pf.Engine, Ctx: ctx, Cache: cache}
	cells, merr := check.RunMatrixCells(os.Stdout, opts)
	// The SARIF log is written even for a failing matrix — the failures
	// are exactly what it exists to report.
	if serr := writeSARIF(*sarif, cells); serr != nil && merr == nil {
		merr = serr
	}
	if merr != nil {
		return merr
	}
	fmt.Println("\nnegative controls (must be refuted):")
	if err := check.RunRefutations(os.Stdout, opts); err != nil {
		return err
	}
	return pf.WriteHeap()
}

// writeSARIF renders the matrix cells as a SARIF log: one GEM017 result
// per failed cell (the cell name as the subject, the failure — including
// any counterexample rendering — as the message), none for a verified
// matrix. The output is deterministic for deterministic cell outcomes,
// so a warm-cache run emits a byte-identical log.
func writeSARIF(path string, cells []check.Cell) error {
	if path == "" {
		return nil
	}
	var diags []lint.FileDiagnostic
	for _, cell := range cells {
		if cell.Verified || cell.Err == nil {
			continue
		}
		diags = append(diags, lint.FileDiagnostic{Diagnostic: lint.Diagnostic{
			Code:     lint.CodeSatRefuted,
			Severity: lint.SeverityError,
			Subject:  cell.Scenario.Problem + "/" + string(cell.Scenario.Language),
			Message:  cell.Err.Error(),
		}})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := lint.WriteSARIFAs(f, "gemverify", diags)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
