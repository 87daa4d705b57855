package monitor

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"gem/internal/core"
	"gem/internal/legal"
)

// counterProgram: a monitor with one Inc entry and n client processes
// each calling Inc once.
func counterProgram(n int) *Program {
	mon := &Monitor{
		Name: "ctr",
		Vars: []string{"count"},
		Entries: []Entry{{
			Name: "Inc",
			Body: []Stmt{Assign{Var: "count", E: Bin{Op: OpAdd, L: VarRef("count"), R: IntLit(1)}}},
		}},
	}
	var procs []Process
	for i := 0; i < n; i++ {
		procs = append(procs, Process{
			Name: "p" + string(rune('1'+i)),
			Body: []ProcStmt{Call{Entry: "Inc"}},
		})
	}
	return &Program{Monitor: mon, Processes: procs}
}

func TestCounterExploration(t *testing.T) {
	runs, truncated, err := Explore(counterProgram(2), ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Fatal("tiny program should not truncate")
	}
	// Two orders of monitor entry -> two distinct computations.
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(runs))
	}
	for _, r := range runs {
		if r.Deadlock {
			t.Error("counter program should not deadlock")
		}
		if r.FinalVars["count"] != 2 {
			t.Errorf("final count = %d, want 2", r.FinalVars["count"])
		}
	}
}

func TestCounterComputationShape(t *testing.T) {
	runs, _, err := Explore(counterProgram(1), ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(runs))
	}
	c := runs[0].Comp
	// Expect: p1.Call, ctr.lock.Acq, ctr.Inc.Begin, ctr.count.Assign,
	// ctr.Inc.End, ctr.lock.Rel, p1.Return = 7 events.
	if c.NumEvents() != 7 {
		t.Fatalf("got %d events:\n%s", c.NumEvents(), c)
	}
	call := c.EventsOf(core.Ref("p1", "Call"))
	ret := c.EventsOf(core.Ref("p1", "Return"))
	assign := c.EventsOf(core.Ref("ctr.count", "Assign"))
	if len(call) != 1 || len(ret) != 1 || len(assign) != 1 {
		t.Fatalf("missing events:\n%s", c)
	}
	if !c.Temporal(call[0], assign[0]) || !c.Temporal(assign[0], ret[0]) {
		t.Error("call must precede assign must precede return")
	}
	if got := c.Event(assign[0]).Params["newval"]; got != core.Int(1) {
		t.Errorf("assign newval = %v", got)
	}
	if got := c.Event(ret[0]).Params["entry"]; got != core.Str("Inc") {
		t.Errorf("return entry = %v", got)
	}
}

// TestMonitorMutualExclusion checks the paper's sequential-execution
// property on every generated computation (experiment E5, monitor leg).
func TestMonitorMutualExclusion(t *testing.T) {
	prog := counterProgram(3)
	runs, _, err := Explore(prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 6 { // 3! grant orders
		t.Fatalf("got %d runs, want 6", len(runs))
	}
	s := Spec(prog)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		res := legal.Check(s, r.Comp, legal.Options{})
		if !res.Legal() {
			t.Fatalf("generated computation must satisfy the Monitor spec: %v\n%s", res.Error(), r.Comp)
		}
	}
}

// waitSignalProgram: consumer waits until count > 0; producer increments
// and signals.
func waitSignalProgram() *Program {
	mon := &Monitor{
		Name:  "ws",
		Vars:  []string{"count"},
		Conds: []string{"nonempty"},
		Entries: []Entry{
			{
				Name: "Take",
				Body: []Stmt{
					If{
						Cond: Bin{Op: OpEq, L: VarRef("count"), R: IntLit(0)},
						Then: []Stmt{Wait{Cond: "nonempty"}},
					},
					Assign{Var: "count", E: Bin{Op: OpSub, L: VarRef("count"), R: IntLit(1)}},
				},
			},
			{
				Name: "Put",
				Body: []Stmt{
					Assign{Var: "count", E: Bin{Op: OpAdd, L: VarRef("count"), R: IntLit(1)}},
					Signal{Cond: "nonempty"},
				},
			},
		},
	}
	return &Program{
		Monitor: mon,
		Processes: []Process{
			{Name: "consumer", Body: []ProcStmt{Call{Entry: "Take"}}},
			{Name: "producer", Body: []ProcStmt{Call{Entry: "Put"}}},
		},
	}
}

func TestWaitSignal(t *testing.T) {
	prog := waitSignalProgram()
	runs, _, err := Explore(prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2 (take-first-waits, put-first)", len(runs))
	}
	s := Spec(prog)
	sawRelease := false
	for _, r := range runs {
		if r.Deadlock {
			t.Errorf("unexpected deadlock:\n%s", r.Comp)
		}
		if r.FinalVars["count"] != 0 {
			t.Errorf("final count = %d, want 0", r.FinalVars["count"])
		}
		res := legal.Check(s, r.Comp, legal.Options{})
		if !res.Legal() {
			t.Errorf("run violates Monitor spec: %v", res.Error())
		}
		if len(r.Comp.EventsOf(core.Ref("ws.nonempty", "Release"))) > 0 {
			sawRelease = true
			// Release must be enabled by exactly one Signal (checked by
			// the spec), and the waiter's Return must follow the
			// producer's Signal temporally.
			sig := r.Comp.EventsOf(core.Ref("ws.nonempty", "Signal"))
			rel := r.Comp.EventsOf(core.Ref("ws.nonempty", "Release"))
			if !r.Comp.Temporal(sig[0], rel[0]) {
				t.Error("Signal must precede Release")
			}
		}
	}
	if !sawRelease {
		t.Error("some schedule must make the consumer wait")
	}
}

func TestDeadlockDetected(t *testing.T) {
	// Consumer waits; nobody signals.
	mon := &Monitor{
		Name:  "d",
		Conds: []string{"never"},
		Entries: []Entry{{
			Name: "Block",
			Body: []Stmt{Wait{Cond: "never"}},
		}},
	}
	prog := &Program{
		Monitor:   mon,
		Processes: []Process{{Name: "p1", Body: []ProcStmt{Call{Entry: "Block"}}}},
	}
	runs, _, err := Explore(prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || !runs[0].Deadlock {
		t.Fatalf("expected a single deadlocked run, got %+v", runs)
	}
}

func TestWhileLoopInEntry(t *testing.T) {
	mon := &Monitor{
		Name: "loop",
		Vars: []string{"i", "sum"},
		Entries: []Entry{{
			Name: "SumTo",
			Args: []string{"n"},
			Body: []Stmt{
				While{
					Cond: Bin{Op: OpLt, L: VarRef("i"), R: VarRef("n")},
					Body: []Stmt{
						Assign{Var: "i", E: Bin{Op: OpAdd, L: VarRef("i"), R: IntLit(1)}},
						Assign{Var: "sum", E: Bin{Op: OpAdd, L: VarRef("sum"), R: VarRef("i")}},
					},
				},
			},
			Result: VarRef("sum"),
		}},
	}
	prog := &Program{
		Monitor:   mon,
		Processes: []Process{{Name: "p1", Body: []ProcStmt{Call{Entry: "SumTo", Args: []int64{3}}}}},
	}
	runs, _, err := Explore(prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("got %d runs", len(runs))
	}
	if runs[0].FinalVars["sum"] != 6 {
		t.Errorf("sum = %d, want 6", runs[0].FinalVars["sum"])
	}
	ret := runs[0].Comp.EventsOf(core.Ref("p1", "Return"))
	if got := runs[0].Comp.Event(ret[0]).Params["result"]; got != core.Int(6) {
		t.Errorf("result param = %v, want 6", got)
	}
}

func TestInitialization(t *testing.T) {
	mon := &Monitor{
		Name: "init",
		Vars: []string{"x"},
		Init: []Stmt{
			Assign{Var: "x", E: IntLit(5)},
			If{Cond: Bin{Op: OpGt, L: VarRef("x"), R: IntLit(3)},
				Then: []Stmt{Assign{Var: "x", E: IntLit(9)}}},
		},
		Entries: []Entry{{Name: "Nop", Body: nil}},
	}
	prog := &Program{
		Monitor:   mon,
		Processes: []Process{{Name: "p1", Body: []ProcStmt{Call{Entry: "Nop"}}}},
	}
	runs, _, err := Explore(prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].FinalVars["x"] != 9 {
		t.Errorf("x = %d, want 9", runs[0].FinalVars["x"])
	}
	// Init events must temporally precede entry events (total internal
	// order through the chain).
	c := runs[0].Comp
	assigns := c.EventsOf(core.Ref("init.x", "Assign"))
	begins := c.EventsOf(core.Ref("init.Nop", "Begin"))
	if len(assigns) != 2 || len(begins) != 1 {
		t.Fatalf("events wrong:\n%s", c)
	}
	if !c.Temporal(assigns[1], begins[0]) {
		t.Error("initialization must precede entry execution")
	}
}

func TestNonTerminatingProgramCaught(t *testing.T) {
	mon := &Monitor{
		Name: "inf",
		Entries: []Entry{{
			Name: "Spin",
			Body: []Stmt{While{Cond: IntLit(1), Body: []Stmt{Assign{Var: "x", E: IntLit(1)}}}},
		}},
		Vars: []string{"x"},
	}
	prog := &Program{
		Monitor:   mon,
		Processes: []Process{{Name: "p1", Body: []ProcStmt{Call{Entry: "Spin"}}}},
	}
	if _, _, err := Explore(prog, ExploreOptions{MaxSteps: 100}); err == nil {
		t.Fatal("non-terminating program must be reported")
	}
}

func TestMaxRunsTruncates(t *testing.T) {
	_, truncated, err := Explore(counterProgram(3), ExploreOptions{MaxRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Error("MaxRuns=2 must truncate the 6-run exploration")
	}
}

func TestLocalOpsInterleaveConcurrently(t *testing.T) {
	// Two processes doing only local ops: their events are concurrent, so
	// all interleavings collapse to ONE computation.
	mon := &Monitor{Name: "m", Entries: []Entry{{Name: "Nop"}}}
	prog := &Program{
		Monitor: mon,
		Processes: []Process{
			{Name: "a", Body: []ProcStmt{Op{Class: "Work"}, Op{Class: "Work"}}},
			{Name: "b", Body: []ProcStmt{Op{Class: "Work"}}},
		},
	}
	runs, _, err := Explore(prog, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("got %d runs, want 1 (interleavings of concurrent events collapse)", len(runs))
	}
	c := runs[0].Comp
	aOps := c.EventsOf(core.Ref("a", "Work"))
	bOps := c.EventsOf(core.Ref("b", "Work"))
	if !c.Concurrent(aOps[0], bOps[0]) {
		t.Error("ops of different processes must be concurrent")
	}
	if !c.Temporal(aOps[0], aOps[1]) {
		t.Error("ops of one process must be ordered")
	}
}

func TestEntryArgsAndBadCalls(t *testing.T) {
	mon := &Monitor{
		Name: "m",
		Vars: []string{"x"},
		Entries: []Entry{{
			Name: "Set", Args: []string{"v"},
			Body: []Stmt{Assign{Var: "x", E: VarRef("v")}},
		}},
	}
	good := &Program{
		Monitor:   mon,
		Processes: []Process{{Name: "p", Body: []ProcStmt{Call{Entry: "Set", Args: []int64{42}}}}},
	}
	runs, _, err := Explore(good, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].FinalVars["x"] != 42 {
		t.Errorf("x = %d, want 42", runs[0].FinalVars["x"])
	}

	badArity := &Program{
		Monitor:   mon,
		Processes: []Process{{Name: "p", Body: []ProcStmt{Call{Entry: "Set"}}}},
	}
	if _, _, err := Explore(badArity, ExploreOptions{}); err == nil {
		t.Error("arity mismatch must fail")
	}
	badEntry := &Program{
		Monitor:   mon,
		Processes: []Process{{Name: "p", Body: []ProcStmt{Call{Entry: "Ghost"}}}},
	}
	if _, _, err := Explore(badEntry, ExploreOptions{}); err == nil {
		t.Error("unknown entry must fail")
	}
}

func TestExprEvaluation(t *testing.T) {
	env := &evalEnv{vars: map[string]int64{"x": 5}, args: map[string]int64{"y": 2}}
	tests := []struct {
		e    Expr
		want int64
	}{
		{IntLit(7), 7},
		{VarRef("x"), 5},
		{VarRef("y"), 2}, // args shadow vars
		{Bin{Op: OpAdd, L: VarRef("x"), R: VarRef("y")}, 7},
		{Bin{Op: OpSub, L: VarRef("x"), R: IntLit(1)}, 4},
		{Bin{Op: OpEq, L: VarRef("x"), R: IntLit(5)}, 1},
		{Bin{Op: OpNe, L: VarRef("x"), R: IntLit(5)}, 0},
		{Bin{Op: OpLt, L: IntLit(1), R: IntLit(2)}, 1},
		{Bin{Op: OpLe, L: IntLit(2), R: IntLit(2)}, 1},
		{Bin{Op: OpGt, L: IntLit(1), R: IntLit(2)}, 0},
		{Bin{Op: OpGe, L: IntLit(2), R: IntLit(3)}, 0},
		{Bin{Op: OpAnd, L: IntLit(1), R: IntLit(0)}, 0},
		{Bin{Op: OpOr, L: IntLit(1), R: IntLit(0)}, 1},
		{Not{E: IntLit(0)}, 1},
		{Not{E: IntLit(3)}, 0},
		{QueueNonEmpty{Cond: "c"}, 0}, // nil machine: empty
	}
	for _, tt := range tests {
		if got := tt.e.eval(env); got != tt.want {
			t.Errorf("%s = %d, want %d", tt.e, got, tt.want)
		}
	}
}

func TestExprStrings(t *testing.T) {
	e := Bin{Op: OpAdd, L: VarRef("x"), R: IntLit(1)}
	if e.String() != "(x + 1)" {
		t.Errorf("String = %q", e.String())
	}
	if (Not{E: VarRef("b")}).String() != "~b" {
		t.Error("Not rendering wrong")
	}
	if (QueueNonEmpty{Cond: "q"}).String() != "queue(q)" {
		t.Error("queue rendering wrong")
	}
}

func TestUndefinedVariablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("undefined variable should panic")
		}
	}()
	VarRef("ghost").eval(&evalEnv{vars: map[string]int64{}})
}

// canonicalComp renders a computation's partial order as a canonical
// string (events keyed by element+occurrence, edges sorted).
func canonicalComp(c *core.Computation) string {
	labels := make([]string, c.NumEvents())
	for _, e := range c.Events() {
		labels[e.ID] = fmt.Sprintf("%s^%d:%s%s", e.Element, e.Seq, e.Class, e.Params)
	}
	var lines []string
	lines = append(lines, append([]string(nil), labels...)...)
	for _, e := range c.Events() {
		for _, succ := range c.Enabled(e.ID) {
			lines = append(lines, labels[e.ID]+">"+labels[succ])
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestReductionPreservesComputations validates the partial-order
// reduction: on small programs the reduced and unreduced explorations
// produce exactly the same set of computations (as partial orders).
func TestReductionPreservesComputations(t *testing.T) {
	programs := map[string]*Program{
		"counter-3":   counterProgram(3),
		"wait-signal": waitSignalProgram(),
		"mixed-ops": {
			Monitor: counterProgram(1).Monitor,
			Processes: []Process{
				{Name: "p1", Body: []ProcStmt{
					Op{Class: "Work"},
					Call{Entry: "Inc"},
					Op{Element: "cell", Class: "Assign", Params: map[string]int64{"newval": 1}},
				}},
				{Name: "p2", Body: []ProcStmt{
					Call{Entry: "Inc"},
					Op{Element: "cell", Class: "Getval"},
				}},
			},
		},
		// Operations at two distinct external elements commute, so
		// sleep sets prune some of their orders; the ones at a shared
		// element do not.
		"two-elements": {
			Monitor: counterProgram(1).Monitor,
			Processes: []Process{
				{Name: "p1", Body: []ProcStmt{
					Op{Element: "a", Class: "Assign", Params: map[string]int64{"newval": 1}},
					Call{Entry: "Inc"},
					Op{Element: "b", Class: "Getval"},
				}},
				{Name: "p2", Body: []ProcStmt{
					Op{Element: "b", Class: "Assign", Params: map[string]int64{"newval": 2}},
					Op{Element: "a", Class: "Getval"},
					Call{Entry: "Inc"},
				}},
				{Name: "p3", Body: []ProcStmt{
					Op{Element: "b", Class: "Getval"},
				}},
			},
		},
	}
	for name, prog := range programs {
		prog := prog
		t.Run(name, func(t *testing.T) {
			collect := func(noReduction bool) map[string]bool {
				runs, truncated, err := Explore(prog, ExploreOptions{NoReduction: noReduction, MaxRuns: 60000})
				if err != nil {
					t.Fatal(err)
				}
				if truncated {
					t.Fatal("truncated")
				}
				out := make(map[string]bool, len(runs))
				for _, r := range runs {
					out[canonicalComp(r.Comp)] = true
				}
				return out
			}
			reduced := collect(false)
			full := collect(true)
			if len(reduced) != len(full) {
				t.Fatalf("reduced explores %d computations, unreduced %d", len(reduced), len(full))
			}
			for k := range full {
				if !reduced[k] {
					t.Fatalf("computation missing from reduced exploration:\n%s", k)
				}
			}
		})
	}
}
