// Command gemmut runs mutation campaigns over the GEM specification and
// computation seeds: generate N deterministic mutants (drop a
// restriction, negate or weaken a formula node, widen a port, permute
// prerequisites, perturb the enable relation), check every unique mutant
// under the auto, lattice, and seq engines, delta-debug each failure to
// a 1-minimal counterexample, and persist the shrunk corpus through the
// result store.
//
//	gemmut                       — 2000 mutants, seed 0
//	gemmut -n 500 -seed 7 -j 4   — fixed-seed campaign on 4 workers
//	gemmut -replay gemmut        — re-check a persisted corpus
//
// The stdout report is a pure function of (-seed, -n): byte-identical
// across -j values and cache temperatures, so CI can diff campaigns.
// Engine disagreements, witnesses failing Verify, and shrink validation
// failures are findings — the command exits non-zero when any occur.
// -budget bounds wall time; an exceeded budget (like SIGINT) exits
// non-zero with partial results, since a truncated campaign is not
// comparable to a complete one.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"gem/internal/mutate"
	"gem/internal/profiling"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gemmut:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("gemmut", flag.ContinueOnError)
	n := fs.Int("n", 2000, "mutants to generate")
	seed := fs.Int64("seed", 0, "campaign seed (same seed, same campaign)")
	budget := fs.Duration("budget", 0, "wall-time budget (0 = unlimited); exceeding it aborts with partial results")
	name := fs.String("name", "gemmut", "campaign name for the persisted manifest")
	replay := fs.String("replay", "", "replay the named campaign's corpus from the store instead of mutating")
	verbose := fs.Bool("v", false, "also list every shrunk failure")
	pf := profiling.Register(fs, profiling.Jobs|profiling.Profile|profiling.Cache)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: gemmut [-n N] [-seed S] [-j N] [-budget D] [-replay NAME]")
	}
	ctx, stop, err := pf.Start()
	if err != nil {
		return err
	}
	defer stop(&err)
	if *budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *budget)
		defer cancel()
	}
	st, cache, err := pf.Store()
	if err != nil {
		return err
	}

	if *replay != "" {
		entries, rerr := mutate.Replay(st, *replay, cache)
		if rerr != nil {
			return rerr
		}
		fmt.Printf("replayed %d corpus entries of campaign %s: engines agree on all\n", entries, *replay)
		return pf.WriteHeap()
	}

	rep, cerr := mutate.Run(mutate.Config{
		N:           *n,
		Seed:        *seed,
		Parallelism: pf.Jobs,
		Ctx:         ctx,
		Cache:       cache,
		Store:       st,
		Name:        *name,
	})
	if ctx.Err() != nil {
		return fmt.Errorf("interrupted (partial results): %w", context.Cause(ctx))
	}
	if cerr != nil {
		return cerr
	}
	if *verbose {
		rep.RenderVerbose(os.Stdout)
	} else {
		rep.Render(os.Stdout)
	}
	if err := pf.WriteHeap(); err != nil {
		return err
	}
	if len(rep.Findings) > 0 {
		return fmt.Errorf("%d finding(s): engines disagree or a witness failed validation", len(rep.Findings))
	}
	return nil
}
