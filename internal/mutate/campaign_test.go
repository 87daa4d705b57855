package mutate

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"gem/internal/core"
	"gem/internal/legal"
	"gem/internal/logic"
	"gem/internal/store"
)

// runCampaign runs a small fixed campaign for the tests; seeds are
// rebuilt per run so spec-pointer memoization never leaks across runs.
func runCampaign(t *testing.T, par int, st *store.Store, n int) *Report {
	t.Helper()
	cfg := Config{N: n, Seed: 11, Parallelism: par, Store: st}
	if st != nil {
		cfg.Cache = st
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// The campaign report must be a pure function of (seed, N): identical
// bytes from the sequential and the 8-worker run.
func TestCampaignDeterministicAcrossParallelism(t *testing.T) {
	rep1 := runCampaign(t, 1, nil, 150)
	rep8 := runCampaign(t, 8, nil, 150)
	var b1, b8 bytes.Buffer
	rep1.RenderVerbose(&b1)
	rep8.RenderVerbose(&b8)
	if !bytes.Equal(b1.Bytes(), b8.Bytes()) {
		t.Fatalf("-j1 and -j8 reports differ:\n--- j1 ---\n%s\n--- j8 ---\n%s", b1.String(), b8.String())
	}
	if rep1.Unique == 0 || rep1.Illegal == 0 {
		t.Fatalf("degenerate campaign: unique=%d illegal=%d", rep1.Unique, rep1.Illegal)
	}
}

// The report lists findings in mutant order, and two same-kind findings
// on one mutant (two engines' bad witnesses) keep their engine order:
// the order must not depend on how the findings were collected.
func TestCampaignFindingOrder(t *testing.T) {
	witness := func(idx int, eng logic.Engine) Finding {
		return Finding{Index: idx, Kind: "bad-witness", Detail: "engine " + eng.String()}
	}
	rep := &Report{Results: []*Result{
		{Legal: true},
		{findings: []Finding{
			witness(1, logic.EngineSeq),
			witness(1, logic.EngineAuto),
			{Index: 1, Kind: "engine-disagreement", Detail: "auto=legal"},
		}},
		{findings: []Finding{witness(2, logic.EngineAuto)}},
	}}
	rep.tally()
	var got []string
	for _, f := range rep.Findings {
		got = append(got, fmt.Sprintf("%d %s %s", f.Index, f.Kind, f.Detail))
	}
	want := []string{
		"1 bad-witness engine seq",
		"1 bad-witness engine auto",
		"1 engine-disagreement auto=legal",
		"2 bad-witness engine auto",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings = %q, want %q", got, want)
	}
	if rep.Legal != 1 || rep.Illegal != 2 {
		t.Errorf("legal=%d illegal=%d, want 1 and 2", rep.Legal, rep.Illegal)
	}
}

// The three engines must agree on every mutant, every witness must pass
// Verify, and every failure must shrink — zero findings on a healthy
// checker. This is the in-tree version of the CI campaign gate.
func TestCampaignEngineAgreement(t *testing.T) {
	rep := runCampaign(t, 4, nil, 200)
	for _, f := range rep.Findings {
		t.Errorf("finding on mutant %d [%s]: %s: %s", f.Index, f.Op, f.Kind, f.Detail)
	}
	shrunk := 0
	for _, r := range rep.Results {
		if r.Legal {
			continue
		}
		if r.Shrunk == nil {
			t.Errorf("illegal mutant %d [%s] has no shrunk witness", r.Mutant.Index, r.Mutant.Op)
			continue
		}
		shrunk++
		if r.Shrunk.Events > r.Shrunk.OrigEvents {
			t.Errorf("mutant %d: shrink grew the computation %d -> %d",
				r.Mutant.Index, r.Shrunk.OrigEvents, r.Shrunk.Events)
		}
		if r.Shrunk.Kind == legal.RestrictionViolation {
			if r.Shrunk.Cx == nil {
				t.Errorf("mutant %d: restriction failure without counterexample", r.Mutant.Index)
			} else if err := r.Shrunk.Cx.Verify(); err != nil {
				t.Errorf("mutant %d: shrunk witness fails Verify: %v", r.Mutant.Index, err)
			}
		}
	}
	if shrunk == 0 {
		t.Fatal("campaign produced no shrunk witnesses")
	}
}

// Shrinking is a fixpoint: re-shrinking an already-minimal witness keeps
// the exact same computation (deterministic chunking + 1-minimality).
func TestShrinkIdempotent(t *testing.T) {
	rep := runCampaign(t, 4, nil, 120)
	checked := 0
	for _, r := range rep.Results {
		if r.Shrunk == nil {
			continue
		}
		v := legal.Violation{
			Kind:        r.Shrunk.Kind,
			Owner:       r.Shrunk.Owner,
			Restriction: r.Shrunk.Restriction,
		}
		again, err := Shrink(r.Mutant.Spec, r.Shrunk.Comp, v, logic.CheckOptions{})
		if err != nil {
			t.Errorf("mutant %d: re-shrink failed: %v", r.Mutant.Index, err)
			continue
		}
		if again.Events != r.Shrunk.Events {
			t.Errorf("mutant %d: re-shrink changed size %d -> %d",
				r.Mutant.Index, r.Shrunk.Events, again.Events)
		}
		if core.Fingerprint(again.Comp) != core.Fingerprint(r.Shrunk.Comp) {
			t.Errorf("mutant %d: re-shrink changed the computation", r.Mutant.Index)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no shrunk witnesses to re-shrink")
	}
}

// Corpus round trip: a campaign persisted through the store replays with
// full engine agreement, and the warm store serves hits.
func TestCampaignCorpusReplay(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	rep := runCampaign(t, 4, st, 150)
	persisted := 0
	for _, r := range rep.Results {
		if r.CorpusKey != "" {
			persisted++
		}
	}
	if persisted == 0 {
		t.Fatal("campaign persisted no corpus entries")
	}
	entries, err := Replay(st, "gemmut", st)
	if err != nil {
		t.Fatal(err)
	}
	if entries == 0 {
		t.Fatal("replay found an empty corpus")
	}
	if st.Stats().Hits == 0 {
		t.Fatal("replay over a warm store recorded no hits")
	}

	// A warm rerun of the identical campaign must reproduce the identical
	// report while serving verdicts from the store.
	before := st.Stats().Hits
	rep2 := runCampaign(t, 2, st, 150)
	var b1, b2 bytes.Buffer
	rep.Render(&b1)
	rep2.Render(&b2)
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("warm rerun changed the report:\n--- cold ---\n%s\n--- warm ---\n%s", b1.String(), b2.String())
	}
	if st.Stats().Hits <= before {
		t.Fatal("warm rerun recorded no additional store hits")
	}
}
