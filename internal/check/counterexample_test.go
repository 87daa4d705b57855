package check_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gem/internal/check"
	"gem/internal/core"
	"gem/internal/legal"
	"gem/internal/logic"
	"gem/internal/monitor"
	"gem/internal/problems/rw"
	"gem/internal/spec"
	"gem/internal/thread"
	"gem/internal/verify"
)

// cexLog renders counterexamples one case at a time: the failing
// formula, the witness history and every history of the witness
// sequence, so any change in which witness an engine reports shows up as
// a diff against the committed golden file.
type cexLog struct{ sb strings.Builder }

func (l *cexLog) section(name string) { fmt.Fprintf(&l.sb, "== %s\n", name) }

func (l *cexLog) violations(t *testing.T, vs []legal.Violation) {
	for _, v := range vs {
		if v.Cx == nil {
			fmt.Fprintf(&l.sb, "violation %s\n", v)
			continue
		}
		fmt.Fprintf(&l.sb, "violation [%s] restriction %s of %s\n", v.Kind, v.Restriction, v.Owner)
		l.cx(t, v.Cx)
	}
}

func (l *cexLog) cx(t *testing.T, cx *logic.Counterexample) {
	t.Helper()
	if err := cx.Verify(); err != nil {
		t.Errorf("%s: %v", cx.Formula, err)
	}
	fmt.Fprintf(&l.sb, "formula %s\nhistory %s\nsequence %d\n", cx.Formula, cx.History, len(cx.Seq))
	for _, h := range cx.Seq {
		fmt.Fprintf(&l.sb, "  %s\n", h)
	}
}

// TestCounterexampleGolden pins the witnesses the checker reports on the
// repository's known failures: the matrix's negative controls, the
// Readers/Writers problem spec's mutual-exclusion and priority
// violations, and E12's three failing properties on the readers=3
// projections. Every witness is also re-verified. Regenerate with
// -update only when a change is meant to alter which witness is found.
func TestCounterexampleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("explores the readers=3 monitor; skipped in -short mode")
	}
	var l cexLog
	for _, r := range check.Refutations() {
		l.section("refutation " + r.Name)
		problem, comps, corr, err := r.Build()
		if err != nil {
			t.Fatal(err)
		}
		idx, res := verify.CheckAll(problem, comps, corr, logic.CheckOptions{})
		fmt.Fprintf(&l.sb, "computation %d of %d\n", idx, len(comps))
		if res.ProjectionErr != nil {
			fmt.Fprintf(&l.sb, "projection %v\n", res.ProjectionErr)
		}
		l.violations(t, res.Legality.Violations)
	}

	for _, neg := range rwNegatives(t) {
		l.section("rw " + neg.name)
		l.violations(t, legal.Check(neg.spec, neg.comp, legal.Options{}).Violations)
	}

	problem, err := rw.ProblemSpec([]string{"r1", "r2", "r3", "w1"}, true)
	if err != nil {
		t.Fatal(err)
	}
	corr := rw.MonitorCorrespondence()
	var projs []*core.Computation
	_, err = monitor.ExploreStream(rw.NewProgram(rw.ReadersPriority, rw.Workload{Readers: 3, Writers: 1}),
		monitor.ExploreOptions{}, func(r monitor.Run) bool {
			p, err := verify.Project(r.Comp, corr)
			if err != nil {
				t.Fatal(err)
			}
			thread.Apply(p.Comp, problem.Threads()...)
			projs = append(projs, p.Comp)
			return len(projs) < 16
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, prop := range e12Properties() {
		l.section("e12 " + prop.name + " readers=3")
		for k, c := range projs {
			if cx := logic.Holds(prop.f, c, logic.CheckOptions{}); cx != nil {
				fmt.Fprintf(&l.sb, "projection %d of %d\n", k, len(projs))
				l.cx(t, cx)
				break
			}
		}
	}
	golden(t, "counterexamples.golden", l.sb.String())
}

type rwNegative struct {
	name string
	spec *spec.Spec
	comp *core.Computation
}

// rwNegatives builds the two hand-written Readers/Writers violations of
// the problem spec's tests: a write overlapping a read
// (writers-exclude-readers) and a write serviced while a read request is
// pending (readers-priority).
func rwNegatives(t *testing.T) []rwNegative {
	t.Helper()
	chain := func(b *core.Builder, ids ...core.EventID) {
		for i := 1; i < len(ids); i++ {
			b.Enable(ids[i-1], ids[i])
		}
	}
	finish := func(s *spec.Spec, b *core.Builder) *core.Computation {
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		thread.Apply(c, s.Threads()...)
		return c
	}
	problem := func(withPriority bool) *spec.Spec {
		s, err := rw.ProblemSpec([]string{"u1", "u2"}, withPriority)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// The reader starts, then the writer starts before the reader ends.
	mutex := problem(false)
	b := core.NewBuilder()
	r := b.Event("u1", "Read", nil)
	rq := b.Event("db.control", "ReqRead", nil)
	st := b.Event("db.control", "StartRead", nil)
	w := b.Event("u2", "Write", core.Params{"info": core.Int(5)})
	wq := b.Event("db.control", "ReqWrite", core.Params{"info": core.Int(5)})
	sw := b.Event("db.control", "StartWrite", core.Params{"info": core.Int(5)})
	as := b.Event("db.data", "Assign", core.Params{"newval": core.Int(5)})
	ew := b.Event("db.control", "EndWrite", nil)
	fw := b.Event("u2", "FinishWrite", nil)
	gv := b.Event("db.data", "Getval", core.Params{"oldval": core.Int(5)})
	er := b.Event("db.control", "EndRead", core.Params{"info": core.Int(5)})
	fr := b.Event("u1", "FinishRead", core.Params{"info": core.Int(5)})
	chain(b, r, rq, st, gv, er, fr)
	chain(b, w, wq, sw, as, ew, fw)
	out := []rwNegative{{"writers-exclude-readers", mutex, finish(mutex, b)}}

	// Both requests are pending, then the write is serviced first.
	prio := problem(true)
	b = core.NewBuilder()
	r = b.Event("u1", "Read", nil)
	rq = b.Event("db.control", "ReqRead", nil)
	w = b.Event("u2", "Write", core.Params{"info": core.Int(5)})
	wq = b.Event("db.control", "ReqWrite", core.Params{"info": core.Int(5)})
	sw = b.Event("db.control", "StartWrite", core.Params{"info": core.Int(5)})
	as = b.Event("db.data", "Assign", core.Params{"newval": core.Int(5)})
	ew = b.Event("db.control", "EndWrite", nil)
	fw = b.Event("u2", "FinishWrite", nil)
	st = b.Event("db.control", "StartRead", nil)
	gv = b.Event("db.data", "Getval", core.Params{"oldval": core.Int(5)})
	er = b.Event("db.control", "EndRead", core.Params{"info": core.Int(5)})
	fr = b.Event("u1", "FinishRead", core.Params{"info": core.Int(5)})
	chain(b, r, rq, st, gv, er, fr)
	chain(b, w, wq, sw, as, ew, fw)
	b.Enable(rq, sw)
	return append(out, rwNegative{"readers-priority", prio, finish(prio, b)})
}

// e12Properties are the three deliberately failing properties of
// BenchmarkE12FailingSpecs.
func e12Properties() []struct {
	name string
	f    logic.Formula
} {
	writeDone := logic.Exists{Var: "fw", Ref: core.Ref("", "FinishWrite"), Body: logic.Occurred{Var: "fw"}}
	return []struct {
		name string
		f    logic.Formula
	}{
		{"reads-finish-first", logic.Box{F: logic.Implies{
			If: logic.And{
				logic.Exists{Var: "rq", Ref: core.Ref("db.control", "ReqWrite"), Body: logic.Occurred{Var: "rq"}},
				logic.Not{F: writeDone},
			},
			Then: logic.Diamond{F: logic.And{
				logic.Exists{Var: "fr", Ref: core.Ref("", "FinishRead"), Body: logic.New{Var: "fr"}},
				logic.Not{F: writeDone},
			}},
		}}},
		{"exists-box", logic.Exists{Var: "sw", Ref: core.Ref("db.control", "StartWrite"),
			Body: logic.Box{F: logic.Occurred{Var: "sw"}}}},
		{"temporal-or", logic.Or{
			logic.Box{F: logic.Exists{Var: "g", Ref: core.Ref("db.data", "Getval"), Body: logic.Occurred{Var: "g"}}},
			logic.Box{F: logic.Exists{Var: "a", Ref: core.Ref("db.data", "Assign"), Body: logic.Occurred{Var: "a"}}},
		}},
	}
}

// golden compares got against testdata/name, or rewrites the file under
// -update, reporting the first differing line.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}
