// Package check assembles the paper's verification case studies into
// runnable scenarios: the full language × problem matrix of Section 11
// (Monitor, CSP, and ADA solutions to the One-Slot Buffer, the Bounded
// Buffer, and the Reader's-Priority Readers/Writers problem), each
// verified with the Section 9 sat methodology over an exhaustive
// exploration. cmd/gemverify prints the matrix; the benchmark harness
// reuses the same scenarios.
package check

import (
	"context"
	"fmt"
	"io"
	"time"

	"gem/internal/ada"
	"gem/internal/core"
	"gem/internal/csp"
	"gem/internal/logic"
	"gem/internal/monitor"
	"gem/internal/obs"
	"gem/internal/problems/boundedbuf"
	"gem/internal/problems/oneslot"
	"gem/internal/problems/rw"
	"gem/internal/spec"
	"gem/internal/verify"
)

// Options configures how scenarios are executed.
type Options struct {
	// Parallelism is the sat-check worker count: every scenario first
	// collects all its runs, then hands them to verify.CheckAll, which
	// fans them out to this many workers (0 or 1 checks them one at a
	// time). Verdicts, run counts and first-failure indices are
	// identical at every value.
	Parallelism int
	// Ctx carries cancellation (and the span context) into exploration
	// and checking: a cancelled context stops the simulator and the
	// check workers promptly, and the scenario reports an interrupted
	// cell instead of a verdict. nil means never cancelled.
	Ctx context.Context
	// Cache, when non-nil, is the persistent result store threaded into
	// every sat check: restriction verdicts and (when the value also
	// implements verify.SatCache) whole-check sat records are looked up before evaluating and written behind on
	// a miss. Verdicts are identical with and without it.
	Cache logic.VerdictCache
}

func firstOpt(opts []Options) Options {
	if len(opts) > 0 {
		return opts[0]
	}
	return Options{}
}

// Language names a concurrency primitive.
type Language string

// The three language primitives the paper describes.
const (
	Monitor Language = "monitor"
	CSP     Language = "csp"
	Ada     Language = "ada"
)

// Languages lists all three.
func Languages() []Language { return []Language{Monitor, CSP, Ada} }

// Scenario is one cell of the verification matrix: explore every
// computation of a solution and check it against its problem spec.
type Scenario struct {
	Problem  string
	Language Language
	// Setup returns the problem spec and the correspondence.
	Setup func() (*spec.Spec, verify.Correspondence, error)
	// Stream explores the solution, yielding each computation in the
	// deterministic exploration order; it reports truncation. Deadlocked
	// runs surface as errors.
	Stream func(yield func(*core.Computation) bool) (bool, error)
}

// Cell is the outcome of running one scenario.
type Cell struct {
	Scenario Scenario
	Runs     int
	Verified bool
	Err      error
	Elapsed  time.Duration
}

// Run executes the scenario: explore every run, then sat-check them
// with verify.CheckAll on Options.Parallelism workers. The verdict, run
// count and first-failure index are the same at every parallelism.
func (s Scenario) Run(opts ...Options) Cell {
	opt := firstOpt(opts)
	start := time.Now()
	name := ""
	if obs.Enabled() {
		name = "scenario " + s.Problem + "/" + string(s.Language)
	}
	ctx, sp := obs.StartSpan(opt.Ctx, name)
	defer sp.End()
	done := logic.Done(ctx)
	problem, corr, err := s.Setup()
	if err != nil {
		return Cell{Scenario: s, Err: err, Elapsed: time.Since(start)}
	}
	var comps []*core.Computation
	truncated, err := s.Stream(func(c *core.Computation) bool {
		comps = append(comps, c)
		return !logic.Cancelled(done)
	})
	if err == nil && truncated && !logic.Cancelled(done) {
		err = fmt.Errorf("check: %s exploration truncated", s.Language)
	}
	if err != nil {
		return Cell{Scenario: s, Err: err, Elapsed: time.Since(start)}
	}
	idx, res := verify.CheckAll(problem, comps, corr,
		logic.CheckOptions{Parallelism: opt.Parallelism, Ctx: ctx, Cache: opt.Cache})
	cell := Cell{Scenario: s, Runs: len(comps), Elapsed: time.Since(start)}
	switch {
	case idx >= 0:
		cell.Err = fmt.Errorf("computation %d: %w", idx, res.Error())
	case logic.Cancelled(done):
		// Whatever verdict the partial work reached is not a verdict on
		// the scenario.
		cell.Err = fmt.Errorf("check: %s/%s interrupted: %w", s.Problem, s.Language, opt.Ctx.Err())
	default:
		cell.Verified = true
	}
	return cell
}

// Matrix returns the nine scenarios of the paper's Section 11 claim.
func Matrix() []Scenario {
	var out []Scenario
	for _, lang := range Languages() {
		out = append(out, oneslotScenario(lang), boundedbufScenario(lang), rwScenario(lang))
	}
	return out
}

func exploreMonitor(p *monitor.Program) ([]*core.Computation, error) {
	var comps []*core.Computation
	truncated, err := stream(p)(func(c *core.Computation) bool {
		comps = append(comps, c)
		return true
	})
	if err != nil {
		return nil, err
	}
	if truncated {
		return nil, fmt.Errorf("check: monitor exploration truncated")
	}
	return comps, nil
}

// maxRuns caps every scenario's and refutation's exploration.
const maxRuns = 60000

// stream adapts a monitor, CSP or ADA program's ExploreStream to the
// scenario streaming shape, rejecting deadlocked runs.
func stream[P *monitor.Program | *csp.Program | *ada.Program](p P) func(yield func(*core.Computation) bool) (bool, error) {
	return func(yield func(*core.Computation) bool) (bool, error) {
		i := 0
		var deadlock error
		each := func(lang Language, c *core.Computation, dead bool) bool {
			if dead {
				deadlock = fmt.Errorf("check: %s run %d deadlocked", lang, i)
				return false
			}
			i++
			return yield(c)
		}
		var trunc bool
		var err error
		switch p := any(p).(type) {
		case *monitor.Program:
			trunc, err = monitor.ExploreStream(p, monitor.ExploreOptions{MaxRuns: maxRuns}, func(r monitor.Run) bool {
				return each(Monitor, r.Comp, r.Deadlock)
			})
		case *csp.Program:
			trunc, err = csp.ExploreStream(p, csp.ExploreOptions{MaxRuns: maxRuns}, func(r csp.Run) bool {
				return each(CSP, r.Comp, r.Deadlock)
			})
		case *ada.Program:
			trunc, err = ada.ExploreStream(p, ada.ExploreOptions{MaxRuns: maxRuns}, func(r ada.Run) bool {
				return each(Ada, r.Comp, r.Deadlock)
			})
		}
		if err == nil {
			err = deadlock
		}
		return trunc, err
	}
}

func oneslotScenario(lang Language) Scenario {
	w := oneslot.Workload{Producers: 1, Consumers: 1, ItemsPerProducer: 2}
	s := Scenario{Problem: "one-slot-buffer", Language: lang}
	switch lang {
	case Monitor:
		s.Stream = stream(oneslot.NewMonitorProgram(w))
		s.Setup = func() (*spec.Spec, verify.Correspondence, error) {
			problem, err := oneslot.ProblemSpec(w)
			return problem, oneslot.MonitorCorrespondence(), err
		}
	case CSP:
		s.Stream = stream(oneslot.NewCSPProgram(w))
		s.Setup = func() (*spec.Spec, verify.Correspondence, error) {
			problem, err := oneslot.ProblemSpec(w)
			return problem, oneslot.CSPCorrespondence(w), err
		}
	default:
		s.Stream = stream(oneslot.NewAdaProgram(w))
		s.Setup = func() (*spec.Spec, verify.Correspondence, error) {
			problem, err := oneslot.ProblemSpec(w)
			return problem, oneslot.AdaCorrespondence(), err
		}
	}
	return s
}

func boundedbufScenario(lang Language) Scenario {
	w := boundedbuf.Workload{Producers: 2, Consumers: 1, ItemsPerProducer: 1, Capacity: 2}
	s := Scenario{Problem: "bounded-buffer", Language: lang}
	switch lang {
	case Monitor:
		s.Stream = stream(boundedbuf.NewMonitorProgram(w))
		s.Setup = func() (*spec.Spec, verify.Correspondence, error) {
			problem, err := boundedbuf.ProblemSpec(w)
			return problem, boundedbuf.MonitorCorrespondence(w.Capacity), err
		}
	case CSP:
		s.Stream = stream(boundedbuf.NewCSPProgram(w))
		s.Setup = func() (*spec.Spec, verify.Correspondence, error) {
			problem, err := boundedbuf.ProblemSpec(w)
			return problem, boundedbuf.CSPCorrespondence(w), err
		}
	default:
		s.Stream = stream(boundedbuf.NewAdaProgram(w))
		s.Setup = func() (*spec.Spec, verify.Correspondence, error) {
			problem, err := boundedbuf.ProblemSpec(w)
			return problem, boundedbuf.AdaCorrespondence(), err
		}
	}
	return s
}

func rwScenario(lang Language) Scenario {
	w := rw.Workload{Readers: 2, Writers: 1}
	clients := []string{"r1", "r2", "w1"}
	s := Scenario{Problem: "readers-writers", Language: lang}
	setup := func(corr verify.Correspondence) func() (*spec.Spec, verify.Correspondence, error) {
		return func() (*spec.Spec, verify.Correspondence, error) {
			problem, err := rw.ProblemSpec(clients, true)
			return problem, corr, err
		}
	}
	switch lang {
	case Monitor:
		s.Stream = stream(rw.NewProgram(rw.ReadersPriority, w))
		s.Setup = setup(rw.MonitorCorrespondence())
	case CSP:
		s.Stream = stream(rw.NewCSPProgram(w))
		s.Setup = setup(rw.CSPCorrespondence(w))
	default:
		s.Stream = stream(rw.NewAdaProgram(w))
		s.Setup = setup(rw.AdaCorrespondence())
	}
	return s
}

// RunMatrix executes every scenario and prints a table; it returns an
// error if any cell fails. Pass Options{Parallelism: n} to sat-check
// each cell's runs on n workers.
func RunMatrix(w io.Writer, opts ...Options) error {
	_, err := RunMatrixCells(w, opts...)
	return err
}

// RunMatrixCells is RunMatrix returning the executed cells as well, in
// matrix order, so front ends (gemverify -sarif) can render the outcomes
// in other formats. An interrupted matrix returns the cells that ran.
func RunMatrixCells(w io.Writer, opts ...Options) ([]Cell, error) {
	opt := firstOpt(opts)
	done := logic.Done(opt.Ctx)
	fmt.Fprintf(w, "%-18s %-9s %9s %9s  %s\n", "PROBLEM", "LANGUAGE", "RUNS", "TIME", "RESULT")
	var cells []Cell
	var firstErr error
	for _, s := range Matrix() {
		if logic.Cancelled(done) {
			if firstErr == nil {
				firstErr = fmt.Errorf("check: matrix interrupted: %w", opt.Ctx.Err())
			}
			break
		}
		cell := s.Run(opt)
		cells = append(cells, cell)
		result := "verified"
		if !cell.Verified {
			result = "FAILED: " + cell.Err.Error()
			if firstErr == nil {
				firstErr = fmt.Errorf("%s/%s: %w", s.Problem, s.Language, cell.Err)
			}
		}
		fmt.Fprintf(w, "%-18s %-9s %9d %9s  %s\n",
			s.Problem, s.Language, cell.Runs, cell.Elapsed.Round(time.Millisecond), result)
	}
	return cells, firstErr
}

// Refutation is a deliberately wrong solution paired with the problem
// spec that must reject it — the negative side of the verification
// matrix.
type Refutation struct {
	Name string
	// Build returns the problem spec, computations, and correspondence;
	// at least one computation must fail the sat check.
	Build func() (*spec.Spec, []*core.Computation, verify.Correspondence, error)
}

// Refutations returns the matrix's negative controls.
func Refutations() []Refutation {
	return []Refutation{
		{
			Name: "writers-priority-monitor vs readers-priority-spec",
			Build: func() (*spec.Spec, []*core.Computation, verify.Correspondence, error) {
				w := rw.Workload{Readers: 2, Writers: 1}
				problem, err := rw.ProblemSpec([]string{"r1", "r2", "w1"}, true)
				if err != nil {
					return nil, nil, verify.Correspondence{}, err
				}
				comps, err := exploreMonitor(rw.NewProgram(rw.WritersPriority, w))
				return problem, comps, rw.MonitorCorrespondence(), err
			},
		},
		{
			Name: "unguarded-deposit vs capacity-spec",
			Build: func() (*spec.Spec, []*core.Computation, verify.Correspondence, error) {
				w := boundedbuf.Workload{Producers: 2, Consumers: 1, ItemsPerProducer: 1, Capacity: 1}
				problem, err := boundedbuf.ProblemSpec(w)
				if err != nil {
					return nil, nil, verify.Correspondence{}, err
				}
				prog := boundedbuf.NewMonitorProgram(w)
				for i, e := range prog.Monitor.Entries {
					if e.Name == "deposit" {
						prog.Monitor.Entries[i].Body = e.Body[1:] // drop the full-check
					}
				}
				// The mutant can deadlock on some schedules (consumer done
				// before the overflowing deposit); keep the non-deadlocked
				// computations, which exhibit the overflow.
				runs, _, err := monitor.Explore(prog, monitor.ExploreOptions{MaxRuns: maxRuns})
				if err != nil {
					return nil, nil, verify.Correspondence{}, err
				}
				var comps []*core.Computation
				for _, r := range runs {
					if !r.Deadlock {
						comps = append(comps, r.Comp)
					}
				}
				return problem, comps, boundedbuf.MonitorCorrespondence(w.Capacity), nil
			},
		},
	}
}

// RunRefutations executes the negative controls: each must be refuted on
// at least one computation. Parallel runs report the same (lowest)
// refuting computation index as sequential ones.
func RunRefutations(w io.Writer, opts ...Options) error {
	opt := firstOpt(opts)
	done := logic.Done(opt.Ctx)
	var firstErr error
	for _, r := range Refutations() {
		if logic.Cancelled(done) {
			if firstErr == nil {
				firstErr = fmt.Errorf("check: refutations interrupted: %w", opt.Ctx.Err())
			}
			break
		}
		problem, comps, corr, err := r.Build()
		if err != nil {
			fmt.Fprintf(w, "%-55s ERROR: %v\n", r.Name, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		idx, _ := verify.CheckAll(problem, comps, corr,
			logic.CheckOptions{Parallelism: opt.Parallelism, Ctx: opt.Ctx, Cache: opt.Cache})
		if idx < 0 {
			fmt.Fprintf(w, "%-55s NOT refuted (%d computations) — matrix broken\n", r.Name, len(comps))
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: expected a refutation", r.Name)
			}
			continue
		}
		fmt.Fprintf(w, "%-55s refuted as expected (computation %d of %d)\n", r.Name, idx, len(comps))
	}
	return firstErr
}
