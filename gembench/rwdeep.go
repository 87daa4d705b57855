package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"gem/internal/core"
	"gem/internal/logic"
	"gem/internal/monitor"
	"gem/internal/obs"
	"gem/internal/problems/rw"
	"gem/internal/spec"
	"gem/internal/thread"
	"gem/internal/verify"
)

// rwDeepRuns is how many runs of the readers=3 readers-priority monitor
// the workload checks: the first ones in exploration order, the same
// runs E11 and E12 use.
const rwDeepRuns = 16

// rwDeepWorkload is the evaluator workload with the largest history
// lattices. Set-up explores the runs once; a pass sat-checks each with
// verify.Check against the readers=3 problem spec, then refutes E12's
// three failing properties with logic.Holds on fresh projections. Every
// pass re-projects, so the lattices memoized on each projection are
// built inside the pass, as in a user's process.
type rwDeepWorkload struct {
	problem *spec.Spec
	corr    verify.Correspondence
	comps   []*core.Computation
	// explore holds the set-up exploration's layer numbers; rw-deep
	// explores only in set-up, so that is where its explore layer is.
	explore map[string]float64
}

// rwDeepProperty is a deliberately failing property and the projection
// on which it is first refuted (the known answer).
type rwDeepProperty struct {
	name    string
	f       logic.Formula
	refuted int
}

// rwDeepProperties are E12's failing properties (see
// BenchmarkE12FailingSpecs for why each shape is interesting).
func rwDeepProperties() []rwDeepProperty {
	writeDone := logic.Exists{Var: "fw", Ref: core.Ref("", "FinishWrite"), Body: logic.Occurred{Var: "fw"}}
	readsFinishFirst := logic.Box{F: logic.Implies{
		If: logic.And{
			logic.Exists{Var: "rq", Ref: core.Ref("db.control", "ReqWrite"), Body: logic.Occurred{Var: "rq"}},
			logic.Not{F: writeDone},
		},
		Then: logic.Diamond{F: logic.And{
			logic.Exists{Var: "fr", Ref: core.Ref("", "FinishRead"), Body: logic.New{Var: "fr"}},
			logic.Not{F: writeDone},
		}},
	}}
	existsBox := logic.Exists{Var: "sw", Ref: core.Ref("db.control", "StartWrite"),
		Body: logic.Box{F: logic.Occurred{Var: "sw"}}}
	temporalOr := logic.Or{
		logic.Box{F: logic.Exists{Var: "g", Ref: core.Ref("db.data", "Getval"), Body: logic.Occurred{Var: "g"}}},
		logic.Box{F: logic.Exists{Var: "a", Ref: core.Ref("db.data", "Assign"), Body: logic.Occurred{Var: "a"}}},
	}
	return []rwDeepProperty{
		{"reads-finish-first", readsFinishFirst, 0},
		{"exists-box", existsBox, 0},
		{"temporal-or", temporalOr, 0},
	}
}

func (w *rwDeepWorkload) setup() error {
	problem, err := rw.ProblemSpec([]string{"r1", "r2", "r3", "w1"}, true)
	if err != nil {
		return err
	}
	prog := rw.NewProgram(rw.ReadersPriority, rw.Workload{Readers: 3, Writers: 1})
	var comps []*core.Computation
	var deadlock error
	a0, t0 := heapAllocBytes(), time.Now()
	_, err = monitor.ExploreStream(prog, monitor.ExploreOptions{}, func(r monitor.Run) bool {
		if r.Deadlock {
			deadlock = fmt.Errorf("monitor run %d deadlocked", len(comps))
			return false
		}
		comps = append(comps, r.Comp)
		return len(comps) < rwDeepRuns
	})
	elapsed, alloc := time.Since(t0).Seconds(), heapAllocBytes()-a0
	if err == nil {
		err = deadlock
	}
	if err != nil {
		return err
	}
	if len(comps) != rwDeepRuns || distinct(comps) != rwDeepRuns {
		return fmt.Errorf("explored %d runs, %d distinct; want %d", len(comps), distinct(comps), rwDeepRuns)
	}
	w.problem, w.corr, w.comps = problem, rw.MonitorCorrespondence(), comps
	w.explore = map[string]float64{
		"explore.s":        elapsed,
		"explore.runs":     rwDeepRuns,
		"explore.distinct": rwDeepRuns,
		"explore.alloc_mb": float64(alloc) / 1e6,
	}
	return nil
}

func (w *rwDeepWorkload) pass() (outcome, error) {
	return w.run(context.Background())
}

// tracedPass is the untraced pass itself: its calls into verify and
// logic are already the layer boundaries, and the spans it opens are
// inert while the collector is off.
func (w *rwDeepWorkload) tracedPass(ctx context.Context) (outcome, error) {
	out, err := w.run(ctx)
	out.layer = map[string]float64{}
	for k, v := range w.explore {
		out.layer[k] = v
	}
	return out, err
}

func (w *rwDeepWorkload) run(ctx context.Context) (outcome, error) {
	var verdicts strings.Builder
	mismatches, checks := 0, 0
	for i, c := range w.comps {
		vctx, sp := obs.StartSpan(ctx, "bench.verify.check")
		r := verify.Check(w.problem, c, w.corr, logic.CheckOptions{Ctx: vctx, Parallelism: 1})
		sp.End()
		checks++
		if !r.Sat() {
			mismatches++
			fmt.Fprintf(&verdicts, "run %d: not sat: %v\n", i, r.Error())
		}
	}
	projs := make([]*core.Computation, len(w.comps))
	for i, c := range w.comps {
		_, sp := obs.StartSpan(ctx, "bench.verify.project")
		p, err := verify.Project(c, w.corr)
		if err == nil {
			thread.Apply(p.Comp, w.problem.Threads()...)
		}
		sp.End()
		if err != nil {
			return outcome{}, fmt.Errorf("projecting run %d: %w", i, err)
		}
		projs[i] = p.Comp
	}
	for _, prop := range rwDeepProperties() {
		refuted := -1
		for k, pc := range projs {
			rctx, sp := obs.StartSpan(ctx, "bench.logic.refute")
			cx := logic.Holds(prop.f, pc, logic.CheckOptions{Ctx: rctx})
			sp.End()
			checks++
			if cx == nil {
				continue
			}
			if err := cx.Verify(); err != nil {
				mismatches++
				fmt.Fprintf(&verdicts, "%s: counterexample fails Verify: %v\n", prop.name, err)
			}
			refuted = k
			break
		}
		if refuted != prop.refuted {
			mismatches++
		}
		fmt.Fprintf(&verdicts, "%s refuted on projection %d\n", prop.name, refuted)
	}
	return outcome{checks: checks, mismatches: mismatches, verdicts: verdicts.String()}, nil
}

func (w *rwDeepWorkload) exact() []string {
	return []string{"sat.checks", "lattice.histories", "engine.lattice.pass", "engine.lattice.fallback", "explore.distinct"}
}

func (w *rwDeepWorkload) pinned() map[string]int64 {
	return map[string]int64{
		"sat.checks":              rwDeepRuns,
		"lattice.histories":       2332,
		"engine.lattice.pass":     16,
		"engine.lattice.fallback": 0,
		"explore.distinct":        rwDeepRuns,
	}
}

func (w *rwDeepWorkload) close() {}
