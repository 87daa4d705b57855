package csp_test

import (
	"fmt"
	"reflect"
	"testing"

	"gem/internal/core"
	"gem/internal/csp"
	"gem/internal/problems/boundedbuf"
	"gem/internal/problems/oneslot"
	"gem/internal/problems/rw"
)

// TestSleepSetsKeepEmission checks the sleep-set reduction against a
// walk that treats every pair of transitions as dependent: both emit
// the same computations, with the same deadlock flags, in the same
// order.
func TestSleepSetsKeepEmission(t *testing.T) {
	programs := map[string]*csp.Program{
		"oneslot":    oneslot.NewCSPProgram(oneslot.Workload{Producers: 1, Consumers: 1, ItemsPerProducer: 2}),
		"boundedbuf": boundedbuf.NewCSPProgram(boundedbuf.Workload{Producers: 2, Consumers: 1, ItemsPerProducer: 1, Capacity: 2}),
		"rw-1":       rw.NewCSPProgram(rw.Workload{Readers: 1, Writers: 1}),
		"rw-2":       rw.NewCSPProgram(rw.Workload{Readers: 2, Writers: 1}),
		// P's alternative sends to R and receives from Q: the two
		// communications share P, so both orders are explored.
		"alt-send-recv": {Processes: []csp.Process{
			{Name: "P", Vars: []string{"x"}, Body: []csp.Stmt{csp.Repeat{N: 2, Body: []csp.Stmt{csp.Alt{Branches: []csp.Branch{
				{Comm: csp.Send{To: "R", E: csp.IntLit(1)}},
				{Comm: csp.Recv{From: "Q", Var: "x"}},
			}}}}}},
			{Name: "Q", Body: []csp.Stmt{csp.Send{To: "P", E: csp.IntLit(2)}}},
			{Name: "R", Vars: []string{"y"}, Body: []csp.Stmt{csp.Recv{From: "P", Var: "y"}}},
		}},
	}
	for name, prog := range programs {
		t.Run(name, func(t *testing.T) {
			var reduced, full []string
			collect := func(out *[]string) func(csp.Run) bool {
				return func(r csp.Run) bool {
					*out = append(*out, fmt.Sprintf("%s deadlock=%v", core.Fingerprint(r.Comp), r.Deadlock))
					return true
				}
			}
			if _, err := csp.ExploreStream(prog, csp.ExploreOptions{}, collect(&reduced)); err != nil {
				t.Fatal(err)
			}
			if _, err := csp.ExploreAllDependent(prog, collect(&full)); err != nil {
				t.Fatal(err)
			}
			if len(reduced) == 0 || !reflect.DeepEqual(reduced, full) {
				t.Fatalf("sleep sets emit %d runs, the all-dependent walk %d, or in another order", len(reduced), len(full))
			}
		})
	}
}
