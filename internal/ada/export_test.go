package ada

import (
	"gem/internal/core"
	"gem/internal/explore"
)

// dependent is the sleep-set oracle: a machine that reports no two
// transitions independent, so the walk puts no branch to sleep.
type dependent struct{ *machine }

func (d dependent) Clone() dependent                      { return dependent{d.machine.Clone()} }
func (dependent) Independent(transition, transition) bool { return false }

// ExploreAllDependent is ExploreStream without sleep sets.
func ExploreAllDependent(p *Program, yield func(Run) bool) (bool, error) {
	m, err := newMachine(p)
	if err != nil {
		return false, err
	}
	return explore.Walk[dependent, transition](dependent{m}, explore.Options{Name: "ada"},
		func(d dependent, c *core.Computation) Run { return finish(d.machine, c) }, yield)
}
