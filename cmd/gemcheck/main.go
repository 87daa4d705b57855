// Command gemcheck reproduces the paper's small worked artifacts from
// the command line:
//
//	gemcheck access      — the Section 4 group-access table (E1)
//	gemcheck histories   — the Section 7 history / vhs enumeration (E2)
//	gemcheck rw          — the Readers/Writers variant × property matrix (E4)
//	gemcheck distributed — dbupdate convergence and Life equivalence (E8)
//
// The -j flag (default NumCPU) sets the checking parallelism for the rw
// matrix; -j1 reproduces the sequential engine exactly.
// -cpuprofile/-memprofile write pprof profiles for performance work. -trace writes a Chrome trace-event
// JSON file (load in chrome://tracing or Perfetto) and -stats prints
// span/counter statistics to stderr. -cache (off, ro or rw; default rw)
// and -cache-dir control the persistent result store used by the rw
// matrix; the table is identical with the cache on, off, warm or cold.
//
// SIGINT (Ctrl-C) interrupts a long rw matrix cleanly: the exploration
// and the checking pool stop promptly, the command exits non-zero with
// an "interrupted (partial results)" error, and any requested profile,
// trace, and stats files are still flushed and parseable.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"gem/internal/core"
	"gem/internal/history"
	"gem/internal/lint"
	"gem/internal/logic"
	"gem/internal/monitor"
	"gem/internal/obs"
	"gem/internal/problems/dbupdate"
	"gem/internal/problems/life"
	"gem/internal/problems/rw"
	"gem/internal/profiling"
	"gem/internal/spec"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gemcheck:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("gemcheck", flag.ContinueOnError)
	pf := profiling.Register(fs, profiling.Jobs|profiling.Profile|profiling.Cache)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: gemcheck [-j N] {access|histories|rw|distributed}")
	}
	ctx, stop, err := pf.Start()
	if err != nil {
		return err
	}
	defer stop(&err)
	switch fs.Arg(0) {
	case "access":
		err = accessTable()
	case "histories":
		err = histories()
	case "rw":
		_, cache, serr := pf.Store()
		if serr != nil {
			return serr
		}
		err = rwMatrix(ctx, pf.Jobs, cache)
	case "distributed":
		err = distributed()
	default:
		return fmt.Errorf("unknown check %q", fs.Arg(0))
	}
	if ctx.Err() != nil {
		return fmt.Errorf("interrupted (partial results): %w", context.Cause(ctx))
	}
	if err != nil {
		return err
	}
	return pf.WriteHeap()
}

// prelint runs the gemlint static analyses over a problem specification
// before any exploration: a statically defective spec fails fast with
// its diagnostics instead of paying for the exhaustive enumeration.
func prelint(name string, s *spec.Spec) error {
	res := lint.ForSpec(s)
	if errs := res.Errors(); len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, d := range errs {
			msgs[i] = d.String()
		}
		return fmt.Errorf("%s specification fails lint:\n  %s", name, strings.Join(msgs, "\n  "))
	}
	return nil
}

// accessTable reproduces the paper's Section 4 allowed-enable table.
func accessTable() error {
	u := core.NewUniverse()
	elems := []string{"EL1", "EL2", "EL3", "EL4", "EL5", "EL6"}
	for _, e := range elems {
		u.AddElement(e)
	}
	u.AddGroup("G1", "EL2", "EL3")
	u.AddGroup("G2", "EL4", "EL5")
	u.AddGroup("G3", "EL3", "EL4")
	u.AddGroup("G4", "EL1")
	if err := u.Validate(); err != nil {
		return err
	}
	fmt.Println("An event in:   May enable any event in:")
	for _, src := range elems {
		var targets []string
		for _, dst := range elems {
			if u.Access(src, dst) {
				targets = append(targets, dst)
			}
		}
		fmt.Printf("  %-10s   %v\n", src, targets)
	}
	return nil
}

// histories reproduces the paper's Section 7 enumeration for the diamond
// computation e1 ⊳ e2, e1 ⊳ e3, e2 ⊳ e4, e3 ⊳ e4.
func histories() error {
	b := core.NewBuilder()
	ids := make([]core.EventID, 4)
	for i := range ids {
		ids[i] = b.Event(fmt.Sprintf("EL%d", i+1), "e"+fmt.Sprint(i+1), nil)
	}
	b.Enable(ids[0], ids[1])
	b.Enable(ids[0], ids[2])
	b.Enable(ids[1], ids[3])
	b.Enable(ids[2], ids[3])
	c, err := b.Build()
	if err != nil {
		return err
	}
	fmt.Println("histories (prefixes):")
	history.Enumerate(c, 0, func(h history.History) bool {
		fmt.Printf("  %s\n", h)
		return true
	})
	fmt.Println("maximal valid history sequences:")
	history.EnumerateComplete(c, 0, func(s history.Sequence) bool {
		fmt.Printf("  %s\n", s)
		return true
	})
	fmt.Printf("linear extensions only: %d (vhs admit the simultaneous concurrent step)\n",
		history.EnumerateLinear(c, 0, func(history.Sequence) bool { return true }))
	return nil
}

// rwMatrix checks every Readers/Writers monitor variant against the
// property set. Each variant's runs over both workloads are collected,
// then checked on up to j workers through logic.FirstFailure; every run
// records its property outcomes in its own slot, so the table is
// identical at any j. A cancelled ctx stops the exploration and the
// workers promptly, and the interrupted variant's row is not printed;
// the caller reports the interruption. cache, when non-nil, serves
// property verdicts from the persistent store; the table is identical
// either way.
func rwMatrix(ctx context.Context, j int, cache logic.VerdictCache) error {
	// Pre-flight: the Readers/Writers problem specification itself must
	// be statically well-formed before any variant is explored.
	if s, err := rw.ProblemSpec([]string{"r1", "r2", "w1"}, true); err != nil {
		return err
	} else if err := prelint("readers/writers", s); err != nil {
		return err
	}
	// holds evaluates one property under its own span so the trace and
	// -stats attribute engine time per property, like the restriction
	// spans in legal.Check.
	holds := func(name string, f logic.Formula, comp *core.Computation) bool {
		pctx, sp := obs.StartSpan(ctx, name)
		cx := logic.Holds(f, comp, logic.CheckOptions{Ctx: pctx, Cache: cache})
		sp.End()
		return cx == nil
	}
	type outcome struct{ mutex, readersPrio, writersPrio, sharing bool }
	workloads := []rw.Workload{{Readers: 2, Writers: 1}, {Readers: 1, Writers: 2}}
	fmt.Printf("%-25s %6s %7s %7s %7s %8s\n", "VARIANT", "RUNS", "MUTEX", "R-PRIO", "W-PRIO", "SHARING")
	for _, v := range rw.Variants() {
		var comps []*core.Computation
		for _, w := range workloads {
			runs, _, err := monitor.Explore(rw.NewProgram(v, w), monitor.ExploreOptions{Ctx: ctx})
			if err != nil {
				return err
			}
			for _, r := range runs {
				comps = append(comps, r.Comp)
			}
		}
		outcomes := make([]outcome, len(comps))
		logic.FirstFailure(ctx, len(comps), j, func(i int) (struct{}, bool) {
			c := comps[i]
			outcomes[i] = outcome{
				mutex:       holds("property rw/mutual-exclusion", rw.MutualExclusionProp(), c),
				readersPrio: holds("property rw/readers-priority", rw.ReadersPriorityProp(), c),
				writersPrio: holds("property rw/writers-priority", rw.WritersPriorityProp(), c),
				sharing:     logic.HoldsAtFull(rw.ReadsOverlap(), c) == nil,
			}
			return struct{}{}, true
		})
		if err := ctx.Err(); err != nil {
			return err
		}
		all := outcome{mutex: true, readersPrio: true, writersPrio: true}
		for _, o := range outcomes {
			all.mutex = all.mutex && o.mutex
			all.readersPrio = all.readersPrio && o.readersPrio
			all.writersPrio = all.writersPrio && o.writersPrio
			all.sharing = all.sharing || o.sharing
		}
		fmt.Printf("%-25s %6d %7v %7v %7v %8v\n", v, len(comps),
			all.mutex, all.readersPrio, all.writersPrio, all.sharing)
	}
	return nil
}

// distributed runs the two distributed applications.
func distributed() error {
	cfg := dbupdate.Config{Sites: 3, Updates: []dbupdate.Update{{Site: 0, Value: 7}, {Site: 1, Value: 9}}}
	if err := prelint("dbupdate", dbupdate.Spec(cfg)); err != nil {
		return err
	}
	runs, _, err := dbupdate.Explore(cfg, dbupdate.ExploreOptions{})
	if err != nil {
		return err
	}
	converged := 0
	for _, r := range runs {
		if r.Converged {
			converged++
		}
	}
	fmt.Printf("dbupdate: %d schedules explored, %d converged\n", len(runs), converged)
	if converged != len(runs) {
		return fmt.Errorf("dbupdate diverged on %d schedules", len(runs)-converged)
	}

	board := life.NewBoard(5, 5)
	board[2][1], board[2][2], board[2][3] = true, true, true // blinker
	gens := 3
	want := life.SyncRun(board.Clone(), gens)
	matched := 0
	const seeds = 10
	for seed := int64(0); seed < seeds; seed++ {
		run, err := life.AsyncRun(board.Clone(), gens, seed)
		if err != nil {
			return err
		}
		if run.Final.Equal(want) {
			matched++
		}
	}
	fmt.Printf("life: %d/%d async schedules matched the synchronous reference over %d generations\n",
		matched, seeds, gens)
	if matched != seeds {
		return fmt.Errorf("life diverged")
	}
	return nil
}
