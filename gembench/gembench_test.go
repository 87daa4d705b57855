package main

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"testing"
	"time"

	"gem/internal/legal"
	"gem/internal/logic"
	"gem/internal/mutate"
	"gem/internal/obs"
	"gem/internal/store"
	"gem/internal/verify"
)

// The wrapper must satisfy every interface the program type-asserts on
// a cache, or a wrapped store would silently skip a layer.
var (
	_ logic.VerdictCache = timedStore{}
	_ verify.SatCache    = timedStore{}
	_ legal.GuardCache   = timedStore{}
)

// runCampaign runs one campaign pass's program calls against a fresh
// store in dir, wrapped or bare, and returns the report, the store's
// traffic and the number of corpus entries replayed.
func runCampaign(t *testing.T, dir string, wrap bool, parallelism int) ([]byte, store.Stats, int) {
	t.Helper()
	st, err := store.Open(dir, store.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	var cache logic.VerdictCache = st
	if wrap {
		cache = timedStore{st}
	}
	rep, err := mutate.Run(mutate.Config{
		N: campaignN, Seed: 7, Parallelism: parallelism,
		Ctx: context.Background(), Cache: cache, Store: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := mutate.Replay(st, "gemmut", cache)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.RenderVerbose(&buf)
	return buf.Bytes(), st.Stats(), n
}

// TestTimedStoreFidelity shows that timing the store does not change the
// program's path: on the campaign workload a wrapped and a bare store
// see identical traffic and produce identical report bytes. The
// comparison runs with one worker, because with two the split of
// lookups into hits and misses depends on which worker reaches a shared
// key first; the records the store ends up holding do not, and are
// compared with two workers.
func TestTimedStoreFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four 2000-mutant campaigns")
	}
	tmp := t.TempDir()
	obs.Enable()
	defer obs.Disable()

	bareReport, bareStats, bareReplayed := runCampaign(t, filepath.Join(tmp, "bare"), false, 1)
	wrapReport, wrapStats, wrapReplayed := runCampaign(t, filepath.Join(tmp, "wrapped"), true, 1)
	if !bytes.Equal(bareReport, wrapReport) {
		t.Errorf("reports differ:\nbare:\n%s\nwrapped:\n%s", bareReport, wrapReport)
	}
	if bareStats != wrapStats {
		t.Errorf("store traffic differs: bare %+v, wrapped %+v", bareStats, wrapStats)
	}
	if bareReplayed != wrapReplayed {
		t.Errorf("replayed %d corpus entries bare, %d wrapped", bareReplayed, wrapReplayed)
	}
	if bareStats.Hits == 0 || bareStats.Writes == 0 {
		t.Errorf("campaign did not exercise the store: %+v", bareStats)
	}

	bare2, _, _ := runCampaign(t, filepath.Join(tmp, "bare2"), false, 2)
	wrap2, _, _ := runCampaign(t, filepath.Join(tmp, "wrapped2"), true, 2)
	if !bytes.Equal(bare2, bareReport) || !bytes.Equal(wrap2, bareReport) {
		t.Error("two-worker reports differ from the one-worker report")
	}
	records := func(name string) int {
		n, err := countFiles(filepath.Join(tmp, name))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if a, b, c := records("bare"), records("bare2"), records("wrapped2"); a != b || a != c {
		t.Errorf("store records: one worker %d, two workers bare %d, wrapped %d", a, b, c)
	}
}

func span(name, parent string, tid int32, start, end int) obs.SpanRec {
	return obs.SpanRec{Name: name, Parent: parent, Tid: tid,
		Start: time.Duration(start) * time.Millisecond, Dur: time.Duration(end-start) * time.Millisecond}
}

func near(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

// TestAttributeSequential checks self times on a sequential matrix pass:
// the wrapped Setup and Stream open context-free spans inside
// Scenario.Run's span and are charged to it, as is a span the program
// opens without a context (lattice.build) to the engine span that
// encloses it; a parse span goes to its caller's layer, and the scenario
// span less Setup and Stream is sat checking.
func TestAttributeSequential(t *testing.T) {
	p := &obs.Profile{Spans: []obs.SpanRec{
		span(rootSpan, "", 1, 0, 100),
		span("scenario rw/monitor", rootSpan, 1, 0, 60),
		span("bench.check.setup", "", 2, 1, 6),
		span("parse", "", 3, 2, 4),
		span("bench.explore", "", 4, 6, 11),
		span("restriction rw/prio", "scenario rw/monitor", 1, 15, 55),
		span("engine.lattice", "restriction rw/prio", 1, 20, 50),
		span("lattice.build", "", 5, 25, 35),
		span("bench.verify.check", rootSpan, 1, 70, 80),
	}}
	m := attribute(p)
	want := map[string]float64{
		"check.self_s":         0.005,
		"check.setup_s":        0.005,
		"explore.self_s":       0.005,
		"verify.check_s":       0.060,
		"verify.project_s":     0.020,
		"legal.self_s":         0.010,
		"logic.self_s":         0.020,
		"history.self_s":       0.010,
		"history.lattice_s":    0.010,
		"legal.restriction_s":  0.040,
		"bench.traced_pass_s":  0.100,
		"bench.unattributed_s": 0.030,
	}
	for k, v := range want {
		if !near(m[k], v) {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}

// TestAttributeWorkers checks two campaign workers whose spans start
// tracks of their own: each span is charged to its own worker, and
// overlapping workers make the layers' self times add up to busy time,
// not wall time.
func TestAttributeWorkers(t *testing.T) {
	p := &obs.Profile{Spans: []obs.SpanRec{
		span(rootSpan, "", 1, 0, 100),
		span("bench.mutate.run", rootSpan, 1, 0, 90),
		span("mutate.gen", "", 2, 0, 10),
		span("mutate.check", "", 3, 10, 80),
		span("restriction a/r", "mutate.check", 3, 20, 40),
		span("bench.store.lookup", "", 5, 22, 26),
		span("mutate.check", "", 4, 12, 70),
		span("restriction b/r", "mutate.check", 4, 30, 60),
		span("engine.lattice", "restriction b/r", 4, 31, 59),
	}}
	parent := parents(p.Spans)
	if got := p.Spans[parent[5]].Name; got != "restriction a/r" {
		t.Errorf("store lookup charged to %q, want restriction a/r", got)
	}
	for _, i := range []int{3, 6} {
		if got := p.Spans[parent[i]].Name; got != "bench.mutate.run" {
			t.Errorf("worker check %d charged to %q, want bench.mutate.run", i, got)
		}
	}
	m := attribute(p)
	want := map[string]float64{
		// run 90 - (gen ∪ two checks = 0..80) = 10; gen 10; check a
		// 70-20; check b 58-30.
		"mutate.self_s":        0.010 + 0.010 + 0.050 + 0.028,
		"legal.self_s":         0.016 + 0.002,
		"store.self_s":         0.004,
		"logic.self_s":         0.028,
		"bench.unattributed_s": 0.010,
	}
	for k, v := range want {
		if !near(m[k], v) {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}

// TestWorkloadsKnownAnswer runs the two fixed workloads end to end, with
// traced passes: every pass, traced or not, must reach the known answer,
// and the exact counters must repeat between the traced passes and
// equal their pinned values.
func TestWorkloadsKnownAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the matrix and rw-deep workloads")
	}
	for _, name := range []string{"matrix", "rw-deep"} {
		t.Run(name, func(t *testing.T) {
			var log bytes.Buffer
			res, err := run(options{workload: name, seconds: 1, trace: true}, &log)
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != minPasses+tracedPasses {
				t.Fatalf("correct=%t failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, log.String())
			}
			for _, m := range perLayerMetrics {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("metric %s missing", m.name)
				}
			}
			if got := res.Metrics["verify.checks"].Value; got != float64(map[string]int{"matrix": matrixChecks(), "rw-deep": rwDeepRuns}[name]) {
				t.Errorf("verify.checks = %v", got)
			}
		})
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 27)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i)
	}
	v, p := tailPercentile(xs)
	if v != 16 || p != 62 {
		t.Errorf("tail of 0..26 = %v at p%d, want 16 at p62 (ten samples beyond)", v, p)
	}
}
