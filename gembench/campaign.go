package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"syscall"

	"gem/internal/core"
	"gem/internal/logic"
	"gem/internal/mutate"
	"gem/internal/obs"
	"gem/internal/spec"
	"gem/internal/store"
)

// campaignN is the number of mutants one campaign pass generates.
const campaignN = 2000

// campaignWorkload is a gemmut campaign on a fresh persistent store: the
// one workload where the store does work, where the worker pool runs,
// and where many small checks run under all three engines. A pass opens
// a new store, runs mutate.Run with the store as both verdict cache and
// corpus store (the write path), then mutate.Replay of the persisted
// corpus through the same store (the read path).
type campaignWorkload struct {
	seed        int64
	parallelism int
	// root holds one store directory per pass. They are removed together
	// when the run ends: deleting a store's files between passes leaves
	// the file system discarding blocks during the next pass, which made
	// pass times swing by a factor of three.
	root   string
	passes int
	// reference is the report of a sequential, store-off campaign with
	// the same seed, rendered with the shrink table; every pass must
	// render the same bytes.
	reference []byte
	corpus    int
}

func newCampaign(seed int64, buildDir string) (*campaignWorkload, error) {
	if err := os.MkdirAll(buildDir, 0o777); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(buildDir, "campaign-stores-")
	if err != nil {
		return nil, err
	}
	par := runtime.NumCPU()
	if par > 2 {
		par = 2
	}
	return &campaignWorkload{seed: seed, parallelism: par, root: root}, nil
}

// setup computes the reference report: the campaign at Parallelism 1
// without a store. Each repeat must render the same bytes.
func (w *campaignWorkload) setup() error {
	rep, err := mutate.Run(mutate.Config{N: campaignN, Seed: w.seed, Parallelism: 1})
	if err != nil {
		return err
	}
	if len(rep.Findings) > 0 {
		return fmt.Errorf("reference campaign has %d findings", len(rep.Findings))
	}
	var buf bytes.Buffer
	rep.RenderVerbose(&buf)
	if w.reference != nil && !bytes.Equal(buf.Bytes(), w.reference) {
		return fmt.Errorf("reference campaign report differs between set-up repeats")
	}
	w.reference = buf.Bytes()
	w.corpus = corpusSize(rep)
	return nil
}

// corpusSize is how many corpus entries a campaign persists: its shrunk
// witnesses, with two mutants that shrank to the same witness of the
// same spec stored once.
func corpusSize(rep *mutate.Report) int {
	keys := map[string]bool{}
	for _, r := range rep.Results {
		if r.Shrunk != nil {
			keys[store.CorpusKey(r.SpecHash, core.Fingerprint(r.Shrunk.Comp))] = true
		}
	}
	return len(keys)
}

// prepare flushes the previous pass's store writes to disk before the
// next pass is timed.
func (w *campaignWorkload) prepare() { syscall.Sync() }

func (w *campaignWorkload) pass() (outcome, error) {
	return w.run(context.Background(), false)
}

func (w *campaignWorkload) tracedPass(ctx context.Context) (outcome, error) {
	return w.run(ctx, true)
}

// run is one pass. A traced pass wraps the store in timedStore and opens
// the benchmark's spans; mutate.Run still gets a context without a span,
// so each worker's mutate.check spans start tracks of their own.
func (w *campaignWorkload) run(ctx context.Context, traced bool) (outcome, error) {
	dir := filepath.Join(w.root, fmt.Sprintf("pass-%d", w.passes))
	w.passes++
	_, sp := obs.StartSpan(ctx, "bench.store.open")
	st, err := store.Open(dir, store.ReadWrite)
	sp.End()
	if err != nil {
		return outcome{}, err
	}
	var cache logic.VerdictCache = st
	if traced {
		cache = timedStore{st}
	}

	_, sp = obs.StartSpan(ctx, "bench.mutate.run")
	rep, err := mutate.Run(mutate.Config{
		N: campaignN, Seed: w.seed, Parallelism: w.parallelism,
		Ctx: context.Background(), Cache: cache, Store: st,
	})
	sp.End()
	if err != nil {
		return outcome{}, err
	}

	_, sp = obs.StartSpan(ctx, "bench.mutate.replay")
	replayed, err := mutate.Replay(st, "gemmut", cache)
	sp.End()
	if err != nil {
		return outcome{}, err
	}
	stats := st.Stats()

	var buf bytes.Buffer
	rep.RenderVerbose(&buf)
	mismatches := len(rep.Findings)
	if !bytes.Equal(buf.Bytes(), w.reference) {
		mismatches++
	}
	if replayed != w.corpus {
		mismatches++
	}
	out := outcome{
		checks:     rep.Unique,
		mismatches: mismatches,
		verdicts:   fmt.Sprintf("report %d bytes, %d findings, %d corpus entries replayed\n", buf.Len(), len(rep.Findings), replayed),
		counts:     map[string]int64{"mutate.unique": int64(rep.Unique)},
	}
	if traced {
		hitRatio := 0.0
		if n := stats.Hits + stats.Misses; n > 0 {
			hitRatio = float64(stats.Hits) / float64(n)
		}
		out.layer = map[string]float64{
			"store.hits":          float64(stats.Hits),
			"store.misses":        float64(stats.Misses),
			"store.writes":        float64(stats.Writes),
			"store.hit_ratio":     hitRatio,
			"mutate.unique_ratio": float64(rep.Unique) / float64(rep.N),
			"mutate.corpus":       float64(replayed),
		}
		// Counting the records walks the whole store, so it happens after
		// the traced pass has ended.
		out.post = func(layer map[string]float64) {
			records, err := countFiles(dir)
			if err != nil {
				records = -1
			}
			layer["store.records"] = float64(records)
		}
	}
	return out, nil
}

// countFiles counts the regular files under dir: the distinct records a
// store holds, which repeat exactly even when two workers wrote one key.
func countFiles(dir string) (int, error) {
	n := 0
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			n++
		}
		return nil
	})
	return n, err
}

func (w *campaignWorkload) exact() []string {
	return []string{"mutate.unique", "store.records", "mutate.gen", "mutate.reject", "mutate.dedup"}
}

func (w *campaignWorkload) pinned() map[string]int64 { return nil }

// close removes every pass's store and waits for the deletion to reach
// the disk, so the next run does not start under its write-back.
func (w *campaignWorkload) close() {
	_ = os.RemoveAll(w.root)
	syscall.Sync()
}

// timedStore wraps the store on traced passes, timing each cache call
// from outside the program in a span of its own. It forwards every
// method the program type-asserts on a cache — logic.VerdictCache,
// verify.SatCache and legal.GuardCache — so the wrapped store takes the
// same paths as the bare one.
type timedStore struct{ st *store.Store }

func (t timedStore) Lookup(f logic.Formula, c *core.Computation, engine logic.Engine) (*logic.Counterexample, bool) {
	_, sp := obs.StartSpan(nil, "bench.store.lookup")
	defer sp.End()
	return t.st.Lookup(f, c, engine)
}

func (t timedStore) Store(f logic.Formula, c *core.Computation, engine logic.Engine, cx *logic.Counterexample) {
	_, sp := obs.StartSpan(nil, "bench.store.write")
	defer sp.End()
	t.st.Store(f, c, engine, cx)
}

func (t timedStore) LookupSat(problem *spec.Spec, c *core.Computation, corrKey string, engine logic.Engine) bool {
	_, sp := obs.StartSpan(nil, "bench.store.lookup")
	defer sp.End()
	return t.st.LookupSat(problem, c, corrKey, engine)
}

func (t timedStore) StoreSat(problem *spec.Spec, c *core.Computation, corrKey string, engine logic.Engine) {
	_, sp := obs.StartSpan(nil, "bench.store.write")
	defer sp.End()
	t.st.StoreSat(problem, c, corrKey, engine)
}

func (t timedStore) LookupGuards(s *spec.Spec, c *core.Computation) ([]bool, bool) {
	_, sp := obs.StartSpan(nil, "bench.store.lookup")
	defer sp.End()
	return t.st.LookupGuards(s, c)
}

func (t timedStore) StoreGuards(s *spec.Spec, c *core.Computation, hold []bool) {
	_, sp := obs.StartSpan(nil, "bench.store.write")
	defer sp.End()
	t.st.StoreGuards(s, c, hold)
}
