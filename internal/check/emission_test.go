package check_test

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"gem/internal/ada"
	"gem/internal/check"
	"gem/internal/core"
	"gem/internal/csp"
	"gem/internal/monitor"
	"gem/internal/problems/boundedbuf"
	"gem/internal/problems/dbupdate"
	"gem/internal/problems/rw"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files from the current code")

// emissionLog records, section by section, the ordered fingerprints of
// the runs an explorer emits together with each run's flag, so any
// change to what the explorers emit, or in which order, shows up as a
// diff against the committed golden file.
type emissionLog struct{ sb strings.Builder }

func (l *emissionLog) section(name string) { fmt.Fprintf(&l.sb, "== %s\n", name) }

// run logs a 64-bit prefix of the run's fingerprint, which keeps the
// golden file small and still tells thousands of runs apart.
func (l *emissionLog) run(c *core.Computation, mark string) {
	fmt.Fprintf(&l.sb, "%s %s\n", core.Fingerprint(c)[:16], mark)
}

func (l *emissionLog) end(truncated bool, err error) {
	fmt.Fprintf(&l.sb, "end truncated=%v err=%v\n", truncated, err)
}

func deadlockFlag(deadlock bool) string {
	if deadlock {
		return "deadlock"
	}
	return "ok"
}

// TestEmissionOrderGolden pins the exact emission order of every
// explorer: each Section 11 matrix scenario (through Scenario.Stream),
// both refutation builds, the unguarded-deposit mutant with its
// deadlock flags, dbupdate's default configuration and its two mutants,
// and the Readers/Writers monitor variants and CSP and ADA solutions at
// readers=1..3. Regenerate with -update only when a change
// is meant to alter what the explorers emit.
func TestEmissionOrderGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("explores the whole matrix; skipped in -short mode")
	}
	var l emissionLog
	for _, s := range check.Matrix() {
		l.section("matrix " + s.Problem + "/" + string(s.Language))
		trunc, err := s.Stream(func(c *core.Computation) bool {
			l.run(c, "ok")
			return true
		})
		l.end(trunc, err)
	}
	for _, r := range check.Refutations() {
		l.section("refutation " + r.Name)
		_, comps, _, err := r.Build()
		for _, c := range comps {
			l.run(c, "ok")
		}
		l.end(false, err)
	}

	l.section("monitor unguarded-deposit")
	prog := boundedbuf.NewMonitorProgram(boundedbuf.Workload{Producers: 2, Consumers: 1, ItemsPerProducer: 1, Capacity: 1})
	for i, e := range prog.Monitor.Entries {
		if e.Name == "deposit" {
			prog.Monitor.Entries[i].Body = e.Body[1:]
		}
	}
	l.end(monitor.ExploreStream(prog, monitor.ExploreOptions{}, func(r monitor.Run) bool {
		l.run(r.Comp, deadlockFlag(r.Deadlock))
		return true
	}))

	cfg := dbupdate.Config{Sites: 3, Updates: []dbupdate.Update{{Site: 0, Value: 7}, {Site: 1, Value: 9}}}
	for _, m := range []struct {
		name string
		opts dbupdate.ExploreOptions
	}{
		{"default", dbupdate.ExploreOptions{}},
		{"drop-last-message", dbupdate.ExploreOptions{DropLastMessage: true}},
		{"ignore-versions", dbupdate.ExploreOptions{IgnoreVersions: true}},
	} {
		l.section("dbupdate " + m.name)
		runs, trunc, err := dbupdate.Explore(cfg, m.opts)
		for _, r := range runs {
			mark := "converged"
			if !r.Converged {
				mark = "diverged"
			}
			l.run(r.Comp, mark)
		}
		l.end(trunc, err)
	}

	// readers=3 is E11's workload. Its sections were recorded by the
	// explorer before sleep sets, when the ADA solution alone took
	// minutes; with sleep sets the whole sweep takes about a second.
	for readers := 1; readers <= 3; readers++ {
		w := rw.Workload{Readers: readers, Writers: 1}
		for _, v := range rw.Variants() {
			l.section(fmt.Sprintf("rw monitor %s readers=%d", v, readers))
			l.end(monitor.ExploreStream(rw.NewProgram(v, w), monitor.ExploreOptions{}, func(r monitor.Run) bool {
				l.run(r.Comp, deadlockFlag(r.Deadlock))
				return true
			}))
		}
		l.section(fmt.Sprintf("rw csp readers=%d", readers))
		l.end(csp.ExploreStream(rw.NewCSPProgram(w), csp.ExploreOptions{}, func(r csp.Run) bool {
			l.run(r.Comp, deadlockFlag(r.Deadlock))
			return true
		}))
		l.section(fmt.Sprintf("rw ada readers=%d", readers))
		l.end(ada.ExploreStream(rw.NewAdaProgram(w), ada.ExploreOptions{}, func(r ada.Run) bool {
			l.run(r.Comp, deadlockFlag(r.Deadlock))
			return true
		}))
	}

	golden(t, "emission.golden", l.sb.String())
}
