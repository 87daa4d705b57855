// Command gembench is the repository's benchmark. It runs one workload
// of the GEM checker in this process — the Section 11 verification
// matrix (matrix), the readers=3 sat check and refutations (rw-deep), or
// a mutation campaign on the persistent store (campaign) — as a closed
// loop of passes for a fixed time, checks every pass against a known
// answer, and prints its metrics as one JSON line. Usage, from the
// repository root (gembench/run.sh builds the binary first):
//
//	gembench --workload matrix|rw-deep|campaign --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// the obs collector disabled: the set-up's and a pass's process CPU time
// and a pass's allocations. With --trace 1 the untraced passes still
// run (they give the wall-time metrics and the base of
// obs.overhead_ratio), and two traced passes follow: the per-layer
// metrics come from spans the benchmark opens around calls into each
// package, plus the spans and counters the program's obs collector
// records inside the functions it calls.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"gem/internal/obs"
)

// minPasses is the fewest timed passes a run makes, however long they
// take; the per-pass metrics are medians over them.
const minPasses = 5

// Set-up runs at least setupRepeats times and until setupSeconds of
// wall time have gone into it; setup_s is the median repeat. A short
// set-up (rw-deep's is about 10 ms) thus repeats often enough that its
// median is not one scheduling accident.
const (
	setupRepeats = 5
	setupSeconds = 2.0
)

// tailMinPasses is the fewest passes for which the run reports a tail:
// the highest percentile with at least ten passes beyond it is then at
// least the median's neighbour, not the fastest pass.
const tailMinPasses = 20

// tracedPasses is how many traced passes a --trace 1 run makes. Two, so
// the exact program counters can be compared between them.
const tracedPasses = 2

// outcome is what one pass produced, reduced to what the oracle checks.
type outcome struct {
	// checks is the number of completed checks, for checks_per_s.
	checks int
	// mismatches counts verdicts or outputs that differ from the known
	// answer; a pass with any is a failed pass.
	mismatches int
	// verdicts renders every verdict of the pass; a traced pass must
	// render the same string as an untraced one.
	verdicts string
	// counts are exact counts read from outside obs (runs explored,
	// unique mutants, store traffic); they must repeat across passes.
	counts map[string]int64
	// layer holds per-layer numbers only the workload knows (explored
	// runs, store statistics); it is filled on traced passes.
	layer map[string]float64
	// post, when set, adds to layer after the traced pass has ended, for
	// numbers that take work the pass must not be charged for.
	post func(layer map[string]float64)
}

// workload is one benchmark workload.
type workload interface {
	// setup does everything before the first timed pass: exploration,
	// reference runs. It runs setupRepeats times and must be idempotent.
	setup() error
	// pass runs one untraced pass and checks it against the known answer.
	pass() (outcome, error)
	// tracedPass does the same work as pass with layer spans opened under
	// ctx, while the obs collector records.
	tracedPass(ctx context.Context) (outcome, error)
	// exact names the obs counters that must be identical between the
	// traced passes; pinned gives fixed values for some of them.
	exact() []string
	pinned() map[string]int64
	// close releases what setup and the passes left behind.
	close()
}

// preparer is implemented by workloads with work to do before each
// timed pass, outside the timed region.
type preparer interface{ prepare() }

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "gembench:", err)
		os.Exit(2)
	}
	res, err := run(opts, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gembench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gembench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("gembench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: matrix, rw-deep or campaign")
	fs.Int64Var(&o.seed, "seed", 7, "workload seed (used by campaign; matrix and rw-deep are fixed scenarios)")
	fs.IntVar(&o.seconds, "seconds", 20, "how long the timed passes run")
	fs.IntVar(&trace, "trace", 0, "1 adds traced passes and reports per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	o.trace = trace == 1
	return o, nil
}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "matrix":
		return &matrixWorkload{}, nil
	case "rw-deep":
		return &rwDeepWorkload{}, nil
	case "campaign":
		return newCampaign(o.seed, ".bench_build")
	}
	return nil, fmt.Errorf("unknown workload %q (want matrix, rw-deep or campaign)", o.workload)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passSample is what the loop measures around one untraced pass.
type passSample struct {
	wall, user, sys    float64 // seconds
	gcCPU              float64 // seconds
	allocBytes, allocs uint64
}

// run executes one benchmark run. Diagnostics go to log; the returned
// result is the run's JSON line.
func run(o options, log io.Writer) (*result, error) {
	w, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	defer w.close()

	var setupWalls, setupCPUs []float64
	for spent := 0.0; len(setupWalls) < setupRepeats || spent < setupSeconds; {
		user0, sys0 := processCPUSeconds()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		wall := time.Since(t0).Seconds()
		setupWalls = append(setupWalls, wall)
		user1, sys1 := processCPUSeconds()
		setupCPUs = append(setupCPUs, user1-user0+sys1-sys0)
		spent += wall
	}

	var (
		samples    []passSample
		attempted  int
		failed     int
		mismatches int
		reference  *outcome
		firstErr   error
		live       []uint64
	)
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		fmt.Fprintln(log, "FAIL:", msg)
		if firstErr == nil {
			firstErr = errors.New(msg)
		}
	}
	// record checks one pass's outcome against the known answer and the
	// exact counts of the first good pass.
	record := func(out outcome, err error, label string) bool {
		attempted++
		ok := true
		switch {
		case err != nil:
			fail("%s: %v", label, err)
			ok = false
		case out.mismatches > 0:
			fail("%s: %d verdict(s) differ from the known answer", label, out.mismatches)
			ok = false
		case reference == nil:
			ref := out
			reference = &ref
		default:
			if out.verdicts != reference.verdicts {
				fail("%s: verdicts differ from the first pass:\n%s\nwant:\n%s", label, out.verdicts, reference.verdicts)
				ok = false
			}
			if d := diffCounts(reference.counts, out.counts); d != "" {
				fail("%s: exact counts differ from the first pass: %s", label, d)
				ok = false
			}
		}
		mismatches += out.mismatches
		if !ok {
			failed++
		}
		return ok
	}

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	live = append(live, ms.HeapAlloc)
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start) < time.Duration(o.seconds)*time.Second; n++ {
		if p, ok := w.(preparer); ok {
			p.prepare()
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		alloc0, mallocs0 := ms.TotalAlloc, ms.Mallocs
		gc0 := gcCPUSeconds()
		user0, sys0 := processCPUSeconds()
		t0 := time.Now()
		out, err := safely(w.pass)
		wall := time.Since(t0).Seconds()
		user1, sys1 := processCPUSeconds()
		gc := gcCPUSeconds() - gc0
		runtime.ReadMemStats(&ms)
		samples = append(samples, passSample{
			wall: wall, user: user1 - user0, sys: sys1 - sys0, gcCPU: gc,
			allocBytes: ms.TotalAlloc - alloc0, allocs: ms.Mallocs - mallocs0,
		})
		record(out, err, fmt.Sprintf("pass %d", n))
		runtime.GC()
		runtime.ReadMemStats(&ms)
		live = append(live, ms.HeapAlloc)
	}

	walls := pick(samples, func(s passSample) float64 { return s.wall })
	users := pick(samples, func(s passSample) float64 { return s.user })
	syss := pick(samples, func(s passSample) float64 { return s.sys })
	passMedian := median(walls)
	fmt.Fprintf(log, "pass walls: %v\n", roundAll(walls))
	fmt.Fprintf(log, "pass user: %v\n", roundAll(users))
	fmt.Fprintf(log, "pass sys: %v\n", roundAll(syss))
	fmt.Fprintf(log, "%s: %d passes, median wall %.4f s, user %.4f s, sys %.4f s; %d set-ups, median wall %.4f s, cpu %.4f s\n",
		o.workload, len(samples), passMedian, median(users), median(syss), len(setupWalls), median(setupWalls), median(setupCPUs))
	if len(walls) >= tailMinPasses {
		tail, pct := tailPercentile(walls)
		fmt.Fprintf(log, "pass_s tail: p%d = %.4f s (%d passes)\n", pct, tail, len(walls))
	} else {
		fmt.Fprintf(log, "pass_s tail: not measured (%d passes, fewer than %d)\n", len(walls), tailMinPasses)
	}

	res := &result{Metrics: map[string]metric{}}
	if !o.trace {
		res.Metrics["setup_s"] = metric{median(setupCPUs), "s"}
		res.Metrics["cpu_user_s"] = metric{median(users), "s"}
		res.Metrics["alloc_mb"] = metric{median(pick(samples, func(s passSample) float64 { return float64(s.allocBytes) / 1e6 })), "MB"}
		res.Metrics["allocs_k"] = metric{median(pick(samples, func(s passSample) float64 { return float64(s.allocs) / 1e3 })), "1e3"}
	} else {
		// Read before the traced passes, whose span records are the
		// benchmark's memory, not the program's.
		rssPeak := peakRSSMB()
		layers, err := traced(w, record, log)
		if err != nil {
			fail("traced passes: %v", err)
		}
		for _, m := range perLayerMetrics {
			res.Metrics[m.name] = metric{layers[m.name], m.unit}
		}
		res.Metrics["pass_s"] = metric{passMedian, "s"}
		res.Metrics["cpu_sys_s"] = metric{median(syss), "s"}
		res.Metrics["setup_wall_s"] = metric{median(setupWalls), "s"}
		res.Metrics["rss_peak_mb"] = metric{rssPeak, "MB"}
		// Every good pass completes the same checks, so the rate at the
		// median pass is the run's throughput.
		checksPerS := 0.0
		if reference != nil && passMedian > 0 {
			checksPerS = float64(reference.checks) / passMedian
		}
		res.Metrics["checks_per_s"] = metric{checksPerS, "1/s"}
		res.Metrics["runtime.gc_cpu_s"] = metric{median(pick(samples, func(s passSample) float64 { return s.gcCPU })), "s"}
		res.Metrics["runtime.retained_kb"] = metric{retainedKB(live), "KB"}
		if passMedian > 0 {
			res.Metrics["obs.overhead_ratio"] = metric{layers["bench.traced_pass_s"] / passMedian, "ratio"}
		}
		res.Metrics["verdict_mismatch"] = metric{float64(mismatches), "count"}
		res.Metrics["error_ratio"] = metric{float64(failed) / float64(attempted), "ratio"}
	}
	res.Attempted = attempted
	res.Failed = failed
	res.Correct = failed == 0 && mismatches == 0 && firstErr == nil
	return res, nil
}

// traced runs the traced passes and returns the per-layer metrics,
// averaged over them. The obs collector is enabled only inside each
// traced pass, and disabled again before anything else runs.
func traced(w workload, record func(outcome, error, string) bool, log io.Writer) (map[string]float64, error) {
	var runs []map[string]float64
	var counts []map[string]int64
	for i := 0; i < tracedPasses; i++ {
		if p, ok := w.(preparer); ok {
			p.prepare()
		}
		runtime.GC()
		obs.Enable()
		ctx, root := obs.StartSpan(context.Background(), rootSpan)
		out, err := safely(func() (outcome, error) { return w.tracedPass(ctx) })
		root.End()
		prof := obs.Snapshot()
		obs.Disable()
		if out.post != nil {
			out.post(out.layer)
		}
		if !record(out, err, fmt.Sprintf("traced pass %d", i)) {
			return nil, fmt.Errorf("traced pass %d failed", i)
		}
		m := attribute(prof)
		for k, v := range out.layer {
			m[k] = v
		}
		runs = append(runs, m)
		c := map[string]int64{}
		for _, name := range w.exact() {
			c[name] = exactValue(prof, out, name)
		}
		counts = append(counts, c)
		fmt.Fprintf(log, "traced pass %d: %.4f s, %d spans, unattributed %.4f s, layers %s\n",
			i, m["bench.traced_pass_s"], len(prof.Spans), m["bench.unattributed_s"], selfSummary(m))
	}
	if d := diffCounts(counts[0], counts[1]); d != "" {
		return nil, fmt.Errorf("exact counters differ between traced passes: %s", d)
	}
	if d := diffPinned(w.pinned(), counts[0]); d != "" {
		return nil, fmt.Errorf("exact counters differ from their pinned values: %s", d)
	}
	return meanMaps(runs), nil
}

// exactValue reads one exact count: one the workload read from outside
// obs if it has one by that name, else the obs counter.
func exactValue(p *obs.Profile, out outcome, name string) int64 {
	if v, ok := out.counts[name]; ok {
		return v
	}
	if v, ok := out.layer[name]; ok {
		return int64(v)
	}
	return p.Counters[name]
}

// safely runs one pass, turning a panic into a failed pass.
func safely(f func() (outcome, error)) (out outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

func diffCounts(want, got map[string]int64) string {
	var diffs []string
	for k, v := range want {
		if got[k] != v {
			diffs = append(diffs, fmt.Sprintf("%s=%d (was %d)", k, got[k], v))
		}
	}
	for k, v := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s=%d (was absent)", k, v))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, ", ")
}

func diffPinned(pinned, got map[string]int64) string {
	var diffs []string
	for k, v := range pinned {
		if got[k] != v {
			diffs = append(diffs, fmt.Sprintf("%s=%d (pinned %d)", k, got[k], v))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, ", ")
}

// retainedKB is the median growth of the live heap per pass, each
// reading taken after a forced collection outside the timed region.
func retainedKB(live []uint64) float64 {
	var growth []float64
	for i := 1; i < len(live); i++ {
		growth = append(growth, (float64(live[i])-float64(live[i-1]))/1024)
	}
	return median(growth)
}

// processCPUSeconds is the process's user and system CPU time so far,
// on all threads.
func processCPUSeconds() (user, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return float64(ru.Utime.Nano()) / 1e9, float64(ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set size (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

func pick(samples []passSample, f func(passSample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.4f", x)
	}
	return out
}
