// Package obs is the check pipeline's observability layer: lightweight
// spans and counters in the style of dd-trace-go's tracer/statsd split,
// recorded into a process-global collector that the CLIs flush as a
// Chrome trace-event file (-trace, viewable in chrome://tracing or
// Perfetto) and a deterministic stats table (-stats).
//
// The collector is disabled by default. Every entry point then reduces
// to a single atomic load and performs no allocation, so the engines
// stay instrumented permanently without taxing production runs: the
// disabled-path cost of a span is one branch, and benchmark deltas
// (scripts/bench.sh asserts BenchmarkE4MonitorRW/j1 against the
// previous record) keep that claim honest.
//
// Span parentage travels through context.Context, the same channel the
// engines use for cancellation (logic.CheckOptions.Ctx): a stage that
// opens a span passes the derived context down, and child spans land on
// the parent's trace track. Enable must not be called concurrently with
// recording; the CLIs enable once before the pipeline starts.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// SpanRec is one completed span.
type SpanRec struct {
	// Name identifies the stage ("gemlang.parse", "engine.lattice",
	// "engine.lattice.cex" for counterexample extraction from the
	// history lattice, "restriction buf/cap", …). Stats aggregate by
	// name.
	Name string
	// Parent is the enclosing span's name, "" for roots. The stats table
	// uses it for the per-restriction-per-engine breakdown.
	Parent string
	// Tid is the trace track: concurrent root spans get distinct tracks
	// (recycled when a root ends), children inherit the parent's, so the
	// Chrome trace viewer nests spans correctly.
	Tid int32
	// Start is the offset from the collector epoch; Dur the wall time.
	Start time.Duration
	Dur   time.Duration
}

var enabled atomic.Bool

var col struct {
	mu       sync.Mutex
	epoch    time.Time
	spans    []SpanRec
	counters map[string]int64
	gauges   map[string]int64
	freeTids []int32
	nextTid  int32
}

// Enabled reports whether the collector is recording. Call sites that
// must build a span name (string concatenation allocates) guard on it;
// plain StartSpan/Count calls need not.
func Enabled() bool { return enabled.Load() }

// Enable clears the collector and starts recording. It must not race
// with in-flight recording: enable before the pipeline starts.
func Enable() {
	col.mu.Lock()
	col.epoch = time.Now()
	col.spans = nil
	col.counters = make(map[string]int64)
	col.gauges = make(map[string]int64)
	col.freeTids = nil
	col.nextTid = 0
	col.mu.Unlock()
	enabled.Store(true)
}

// Disable stops recording. Data collected so far stays readable through
// Snapshot/WriteTrace/WriteStats.
func Disable() { enabled.Store(false) }

// Span is a handle for one in-flight timed section. The zero Span —
// what StartSpan returns while the collector is disabled — is inert:
// End on it is a no-op.
type Span struct {
	name   string
	parent string
	tid    int32
	start  time.Duration
	on     bool
	root   bool
}

type ctxKey struct{}

type ctxSpan struct {
	name string
	tid  int32
}

// StartSpan opens a span as a child of the span carried by ctx (if any)
// and returns a context carrying the new span for further nesting. With
// the collector disabled it returns ctx unchanged and the zero Span —
// no allocation. ctx may be nil (treated as context.Background()).
func StartSpan(ctx context.Context, name string) (context.Context, Span) {
	if !enabled.Load() {
		return ctx, Span{}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sp := Span{name: name, on: true}
	if parent, ok := ctx.Value(ctxKey{}).(ctxSpan); ok {
		sp.tid = parent.tid
		sp.parent = parent.name
	} else {
		sp.tid = acquireTid()
		sp.root = true
	}
	sp.start = time.Since(col.epoch)
	return context.WithValue(ctx, ctxKey{}, ctxSpan{name: name, tid: sp.tid}), sp
}

// End closes the span and records it. Ending a zero Span does nothing;
// a span started while enabled is recorded even if recording was
// disabled in between, so trace files stay balanced.
func (s Span) End() {
	if !s.on {
		return
	}
	end := time.Since(col.epoch)
	col.mu.Lock()
	col.spans = append(col.spans, SpanRec{
		Name: s.name, Parent: s.parent, Tid: s.tid, Start: s.start, Dur: end - s.start,
	})
	if s.root {
		col.freeTids = append(col.freeTids, s.tid)
	}
	col.mu.Unlock()
}

// acquireTid hands out a trace track: a recycled one if a root span has
// finished, a fresh one otherwise, so the number of tracks equals the
// peak number of concurrently open roots (≈ the worker count), not the
// total span count.
func acquireTid() int32 {
	col.mu.Lock()
	defer col.mu.Unlock()
	if n := len(col.freeTids); n > 0 {
		t := col.freeTids[n-1]
		col.freeTids = col.freeTids[:n-1]
		return t
	}
	col.nextTid++
	return col.nextTid
}

// Count adds delta to the named counter (total histories enumerated,
// store hits, …). No-op when disabled.
func Count(name string, delta int64) {
	if !enabled.Load() {
		return
	}
	col.mu.Lock()
	col.counters[name] += delta
	col.mu.Unlock()
}

// SetMax raises the named gauge to v when v is larger — a high-water
// mark, e.g. the largest history lattice built. No-op when disabled.
func SetMax(name string, v int64) {
	if !enabled.Load() {
		return
	}
	col.mu.Lock()
	if cur, ok := col.gauges[name]; !ok || v > cur {
		col.gauges[name] = v
	}
	col.mu.Unlock()
}

// Profile is an immutable snapshot of everything recorded since Enable.
type Profile struct {
	Spans    []SpanRec
	Counters map[string]int64
	Gauges   map[string]int64
}

// Snapshot copies the collector state. Safe to call while recording is
// still in progress (an interrupted run snapshots what it has).
func Snapshot() *Profile {
	col.mu.Lock()
	defer col.mu.Unlock()
	p := &Profile{
		Spans:    append([]SpanRec(nil), col.spans...),
		Counters: make(map[string]int64, len(col.counters)),
		Gauges:   make(map[string]int64, len(col.gauges)),
	}
	for k, v := range col.counters {
		p.Counters[k] = v
	}
	for k, v := range col.gauges {
		p.Gauges[k] = v
	}
	return p
}
