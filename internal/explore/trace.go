package explore

import (
	"sort"
	"strconv"
	"strings"

	"gem/internal/core"
)

// Trace records the events a simulator generates along one path and the
// enables between them. Each actor (process, task or site) is a thread
// of control: its events are chained in the order it emits them.
type Trace struct {
	events []event
	edges  [][2]int
	last   []int // per actor: index of its latest event, -1 before the first
}

type event struct {
	elem, class string
	params      core.Params
}

// NewTrace returns an empty trace for the given number of actors.
func NewTrace(actors int) Trace {
	last := make([]int, actors)
	for i := range last {
		last[i] = -1
	}
	return Trace{last: last}
}

// Emit appends an event at elem, enabled by actor's previous event
// (none when actor < 0) and by every extra event index >= 0, makes it
// actor's latest event and returns its index.
func (t *Trace) Emit(actor int, elem, class string, params core.Params, extra ...int) int {
	idx := len(t.events)
	t.events = append(t.events, event{elem: elem, class: class, params: params})
	if actor >= 0 && t.last[actor] >= 0 {
		t.edges = append(t.edges, [2]int{t.last[actor], idx})
	}
	for _, e := range extra {
		if e >= 0 {
			t.edges = append(t.edges, [2]int{e, idx})
		}
	}
	if actor >= 0 {
		t.last[actor] = idx
	}
	return idx
}

// Clone returns an independent copy.
func (t *Trace) Clone() Trace {
	return Trace{
		events: append([]event(nil), t.events...),
		edges:  append([][2]int(nil), t.edges...),
		last:   append([]int(nil), t.last...),
	}
}

func (t *Trace) build() (*core.Computation, error) {
	b := core.NewBuilder()
	ids := make([]core.EventID, len(t.events))
	for i, e := range t.events {
		ids[i] = b.Event(e.elem, e.class, e.params)
	}
	for _, e := range t.edges {
		b.Enable(ids[e[0]], ids[e[1]])
	}
	return b.Build()
}

// key identifies the trace's partial order exactly: events are labelled
// by element, per-element occurrence index, class and parameters, and
// the sorted labels and labelled edges are listed, so interleavings that
// differ only in the order of concurrent events get the same key. The
// key is the full string, never a hash of it: a collision would
// silently drop a computation.
func (t *Trace) key() string {
	perElem := make(map[string]int)
	labels := make([]string, len(t.events))
	for i, e := range t.events {
		labels[i] = e.elem + "^" + strconv.Itoa(perElem[e.elem]) + ":" + e.class + e.params.String()
		perElem[e.elem]++
	}
	var sb strings.Builder
	sorted := append([]string(nil), labels...)
	sort.Strings(sorted)
	for _, l := range sorted {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	edgeLabels := make([]string, len(t.edges))
	for i, e := range t.edges {
		edgeLabels[i] = labels[e[0]] + ">" + labels[e[1]]
	}
	sort.Strings(edgeLabels)
	for _, l := range edgeLabels {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	return sb.String()
}
