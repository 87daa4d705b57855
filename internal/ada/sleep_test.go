package ada_test

import (
	"fmt"
	"reflect"
	"testing"

	"gem/internal/ada"
	"gem/internal/core"
	"gem/internal/problems/boundedbuf"
	"gem/internal/problems/oneslot"
	"gem/internal/problems/rw"
)

// TestSleepSetsKeepEmission checks the sleep-set reduction against a
// walk that treats every pair of transitions as dependent: both emit
// the same computations, with the same deadlock flags, in the same
// order.
func TestSleepSetsKeepEmission(t *testing.T) {
	programs := map[string]*ada.Program{
		"oneslot":    oneslot.NewAdaProgram(oneslot.Workload{Producers: 1, Consumers: 1, ItemsPerProducer: 2}),
		"boundedbuf": boundedbuf.NewAdaProgram(boundedbuf.Workload{Producers: 2, Consumers: 1, ItemsPerProducer: 1, Capacity: 2}),
		"rw-1":       rw.NewAdaProgram(rw.Workload{Readers: 1, Writers: 1}),
		"rw-2":       rw.NewAdaProgram(rw.Workload{Readers: 2, Writers: 1}),
	}
	for name, prog := range programs {
		t.Run(name, func(t *testing.T) {
			var reduced, full []string
			collect := func(out *[]string) func(ada.Run) bool {
				return func(r ada.Run) bool {
					*out = append(*out, fmt.Sprintf("%s deadlock=%v", core.Fingerprint(r.Comp), r.Deadlock))
					return true
				}
			}
			if _, err := ada.ExploreStream(prog, ada.ExploreOptions{}, collect(&reduced)); err != nil {
				t.Fatal(err)
			}
			if _, err := ada.ExploreAllDependent(prog, collect(&full)); err != nil {
				t.Fatal(err)
			}
			if len(reduced) == 0 || !reflect.DeepEqual(reduced, full) {
				t.Fatalf("sleep sets emit %d runs, the all-dependent walk %d, or in another order", len(reduced), len(full))
			}
		})
	}
}
