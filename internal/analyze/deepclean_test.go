package analyze_test

import (
	"testing"

	"gem/internal/analyze"
	"gem/internal/problems/boundedbuf"
	"gem/internal/problems/rw"
)

// TestShippedSpecsDeepClean: the problem specs the repo verifies must
// produce no deep diagnostics — the analyzer must not cry wolf on the
// paper's own examples.
func TestShippedSpecsDeepClean(t *testing.T) {
	bufSpec, err := boundedbuf.ProblemSpec(boundedbuf.Workload{
		Producers: 2, Consumers: 2, ItemsPerProducer: 2, Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	rwSpec, err := rw.ProblemSpec([]string{"u1", "u2", "w1"}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		res  *analyze.Result
	}{
		{"boundedbuf", analyze.Analyze(bufSpec)},
		{"rw", analyze.Analyze(rwSpec)},
	} {
		if len(tc.res.Deep) != 0 {
			t.Errorf("%s: deep analyzer flagged a shipped spec: %v", tc.name, tc.res.Deep)
		}
	}
}

// TestForSpecMemoized: repeated calls must return the identical cached
// result.
func TestForSpecMemoized(t *testing.T) {
	s, err := boundedbuf.ProblemSpec(boundedbuf.Workload{
		Producers: 1, Consumers: 1, ItemsPerProducer: 1, Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if analyze.ForSpec(s) != analyze.ForSpec(s) {
		t.Error("ForSpec did not memoize the analysis result")
	}
}

// BenchmarkDeepAnalyze measures a full deep analysis of the bounded
// buffer problem spec (graph build, producibility fixpoint, deadlock
// SCC, redundancy scan, guard computation).
func BenchmarkDeepAnalyze(b *testing.B) {
	s, err := boundedbuf.ProblemSpec(boundedbuf.Workload{
		Producers: 2, Consumers: 2, ItemsPerProducer: 4, Capacity: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := analyze.Analyze(s); len(res.Deep) != 0 {
			b.Fatalf("unexpected deep diagnostics: %v", res.Deep)
		}
	}
}
