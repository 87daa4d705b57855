package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"gem/internal/obs"
)

// rootSpan is the span the benchmark opens around a whole traced pass.
const rootSpan = "bench.pass"

// layers are the program's packages the traced pass attributes time to,
// in report order.
var layers = []string{"check", "explore", "verify", "legal", "logic", "history", "lint", "analyze", "store", "mutate"}

// layerOf maps a span name to its layer. Spans the benchmark opens are
// named bench.<layer>.*; the rest are the names the program's obs
// instrumentation uses. "" means the span belongs to its caller's layer
// (gemlang's parse spans, for example, count toward whoever parses).
func layerOf(name string) string {
	switch {
	case name == rootSpan:
		return "bench"
	case name == "bench.check.setup":
		return "check"
	case name == "bench.explore":
		return "explore"
	case strings.HasPrefix(name, "bench.verify."), strings.HasPrefix(name, "scenario "):
		return "verify"
	case strings.HasPrefix(name, "restriction "):
		return "legal"
	case strings.HasPrefix(name, "engine."), name == "bench.logic.refute":
		return "logic"
	case name == "lattice.build":
		return "history"
	case name == "lint.analyze":
		return "lint"
	case name == "analyze.deep":
		return "analyze"
	case strings.HasPrefix(name, "store."), strings.HasPrefix(name, "bench.store."):
		return "store"
	case strings.HasPrefix(name, "mutate."), strings.HasPrefix(name, "bench.mutate."):
		return "mutate"
	}
	return ""
}

func spanEnd(s obs.SpanRec) time.Duration { return s.Start + s.Dur }

func encloses(outer, inner obs.SpanRec) bool {
	return outer.Start <= inner.Start && spanEnd(inner) <= spanEnd(outer)
}

// parents links every span to the span that called it, or -1 for the
// root. A span opened with a context names its parent and shares its
// trace track; the benchmark never shares one context between
// goroutines, so on each track the open spans form a stack. A span
// opened without a context (lattice.build, store.*, lint.*, every span
// under mutate.Run, which gets a span-free context, and the benchmark's
// wrappers around a matrix scenario's Setup and Stream) starts a track
// of its own; its caller is the innermost open span on any track
// that encloses it in time, the latest-starting one if several do
// (mutate.gen and mutate.check are always charged to mutate.Run). On
// the sequential workloads that choice is exact. Under the campaign's
// two workers it can pick the other worker's span when both enclose the
// call; the time then moves between two spans that are usually in the
// same layer.
func parents(spans []obs.SpanRec) []int {
	// The workers' top-level spans are only ever called from mutate.Run;
	// without this, one worker's long check could adopt the other's.
	knownCaller := map[string]string{"mutate.gen": "bench.mutate.run", "mutate.check": "bench.mutate.run"}
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.Dur > sb.Dur
	})
	parent := make([]int, len(spans))
	stacks := map[int32][]int{}
	var tids []int32
	popEnded := func(tid int32, at time.Duration) {
		st := stacks[tid]
		for len(st) > 0 && spanEnd(spans[st[len(st)-1]]) <= at {
			st = st[:len(st)-1]
		}
		stacks[tid] = st
	}
	for _, i := range order {
		s := spans[i]
		parent[i] = -1
		if s.Parent != "" {
			popEnded(s.Tid, s.Start)
			st := stacks[s.Tid]
			for k := len(st) - 1; k >= 0; k-- {
				if spans[st[k]].Name == s.Parent {
					parent[i] = st[k]
					break
				}
			}
		}
		if parent[i] < 0 && s.Name != rootSpan {
			caller := knownCaller[s.Name]
			for _, tid := range tids {
				popEnded(tid, s.Start)
				st := stacks[tid]
				for k := len(st) - 1; k >= 0; k-- {
					cand := st[k]
					if !encloses(spans[cand], s) || (caller != "" && spans[cand].Name != caller) {
						continue
					}
					if parent[i] < 0 || spans[cand].Start > spans[parent[i]].Start {
						parent[i] = cand
					}
					break
				}
			}
		}
		if _, ok := stacks[s.Tid]; !ok {
			tids = append(tids, s.Tid)
			sort.Slice(tids, func(a, b int) bool { return tids[a] < tids[b] })
		}
		stacks[s.Tid] = append(stacks[s.Tid], i)
	}
	return parent
}

// selfTimes returns each span's duration minus the part of it its
// callees cover (overlapping callees counted once).
func selfTimes(spans []obs.SpanRec, parent []int) []time.Duration {
	children := make([][]int, len(spans))
	for i, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := spans[c].Start, spanEnd(spans[c])
			if a < s.Start {
				a = s.Start
			}
			if b > spanEnd(s) {
				b = spanEnd(s)
			}
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB time.Duration
		open := false
		for _, v := range ivs {
			if open && v.a <= curB {
				if v.b > curB {
					curB = v.b
				}
				continue
			}
			if open {
				covered += curB - curA
			}
			curA, curB, open = v.a, v.b, true
		}
		if open {
			covered += curB - curA
		}
		self[i] = s.Dur - covered
	}
	return self
}

// spanLayers resolves every span's layer, inheriting the caller's where
// the name does not name one.
func spanLayers(spans []obs.SpanRec, parent []int) []string {
	layer := make([]string, len(spans))
	var resolve func(i int) string
	resolve = func(i int) string {
		if layer[i] != "" {
			return layer[i]
		}
		l := layerOf(spans[i].Name)
		if l == "" {
			if parent[i] >= 0 {
				l = resolve(parent[i])
			} else {
				l = "bench"
			}
		}
		layer[i] = l
		return l
	}
	for i := range spans {
		resolve(i)
	}
	return layer
}

// attribute turns one traced pass's obs profile into per-layer metrics:
// self time per layer, span totals and counters by the metric names the
// benchmark reports, the traced pass's wall time, and the part of it no
// layer span covers (bench.unattributed_s).
func attribute(p *obs.Profile) map[string]float64 {
	spans := p.Spans
	parent := parents(spans)
	self := selfTimes(spans, parent)
	layerOfSpan := spanLayers(spans, parent)

	m := map[string]float64{}
	total := map[string]float64{}
	for i, s := range spans {
		d := s.Dur.Seconds()
		switch {
		case strings.HasPrefix(s.Name, "restriction "):
			total["restriction"] += d
		case strings.HasPrefix(s.Name, "scenario "):
			total["scenario"] += d
		default:
			total[s.Name] += d
		}
		// Scenario.Run calls Setup and Stream inside its own span; the rest
		// of that span is sat checking.
		if c := parent[i]; c >= 0 && strings.HasPrefix(spans[c].Name, "scenario ") &&
			(layerOfSpan[i] == "check" || layerOfSpan[i] == "explore") {
			total["scenario"] -= d
		}
		switch l := layerOfSpan[i]; l {
		case "bench":
			if s.Name == rootSpan {
				m["bench.traced_pass_s"] += d
				m["bench.unattributed_s"] += self[i].Seconds()
			}
		case "verify":
			m["verify.project_s"] += self[i].Seconds()
		default:
			m[l+".self_s"] += self[i].Seconds()
		}
	}
	c := p.Counters
	m["check.setup_s"] = total["bench.check.setup"]
	m["explore.s"] = total["bench.explore"]
	m["verify.check_s"] = total["bench.verify.check"] + total["scenario"]
	m["verify.checks"] = float64(c["sat.checks"])
	m["history.lattice_s"] = total["lattice.build"]
	m["history.lattices"] = float64(c["lattice.builds"])
	m["history.histories"] = float64(c["lattice.histories"])
	m["history.max_histories"] = float64(p.Gauges["lattice.max_histories"])
	m["logic.histories_s"] = total["engine.histories"]
	m["logic.lattice_s"] = total["engine.lattice"]
	m["logic.cex_s"] = total["engine.lattice.cex"]
	m["logic.seq_s"] = total["engine.seq"] + total["engine.pairs"]
	m["logic.refute_s"] = total["bench.logic.refute"]
	m["logic.lattice_pass"] = float64(c["engine.lattice.pass"])
	m["logic.fallback"] = float64(c["engine.lattice.fallback"])
	m["logic.sequences"] = float64(c["sequences.enumerated"])
	m["legal.restriction_s"] = total["restriction"]
	m["legal.fastpath_hits"] = float64(c["fastpath.hits"])
	m["legal.prelint_hits"] = float64(c["prelint.shortcircuit"])
	m["lint.analyze_s"] = total["lint.analyze"]
	m["analyze.deep_s"] = total["analyze.deep"]
	m["store.lookup_s"] = total["bench.store.lookup"]
	m["store.write_s"] = total["bench.store.write"]
	m["mutate.run_s"] = total["bench.mutate.run"]
	m["mutate.gen_s"] = total["mutate.gen"]
	m["mutate.check_s"] = total["mutate.check"]
	m["mutate.shrink_s"] = total["mutate.shrink"]
	m["mutate.replay_s"] = total["bench.mutate.replay"]
	m["mutate.generated"] = float64(c["mutate.gen"])
	m["mutate.rejected"] = float64(c["mutate.reject"])
	m["mutate.deduped"] = float64(c["mutate.dedup"])
	return m
}

// selfSummary renders the layers' self times, largest first, for the
// run's log.
func selfSummary(m map[string]float64) string {
	type kv struct {
		k string
		v float64
	}
	var kvs []kv
	for _, l := range layers {
		k := l + ".self_s"
		if l == "verify" {
			k = "verify.project_s"
		}
		if m[k] > 0 {
			kvs = append(kvs, kv{l, m[k]})
		}
	}
	sort.SliceStable(kvs, func(a, b int) bool { return kvs[a].v > kvs[b].v })
	parts := make([]string, len(kvs))
	for i, e := range kvs {
		parts[i] = fmt.Sprintf("%s=%.4f", e.k, e.v)
	}
	return strings.Join(parts, " ")
}

type metricDef struct{ name, unit string }

// perLayerMetrics is the --trace 1 metric set, in BENCHMARK.json order.
// Every metric is reported on every workload; a layer the workload does
// not reach reports 0.
var perLayerMetrics = []metricDef{
	{"check.setup_s", "s"}, {"check.self_s", "s"},
	{"explore.s", "s"}, {"explore.runs", "count"}, {"explore.distinct", "count"}, {"explore.alloc_mb", "MB"}, {"explore.self_s", "s"},
	{"verify.check_s", "s"}, {"verify.checks", "count"}, {"verify.project_s", "s"},
	{"history.lattice_s", "s"}, {"history.lattices", "count"}, {"history.histories", "count"}, {"history.max_histories", "count"}, {"history.self_s", "s"},
	{"logic.histories_s", "s"}, {"logic.lattice_s", "s"}, {"logic.cex_s", "s"}, {"logic.seq_s", "s"}, {"logic.refute_s", "s"},
	{"logic.lattice_pass", "count"}, {"logic.fallback", "count"}, {"logic.sequences", "count"}, {"logic.self_s", "s"},
	{"legal.restriction_s", "s"}, {"legal.fastpath_hits", "count"}, {"legal.prelint_hits", "count"}, {"legal.self_s", "s"},
	{"lint.analyze_s", "s"}, {"lint.self_s", "s"}, {"analyze.deep_s", "s"}, {"analyze.self_s", "s"},
	{"store.lookup_s", "s"}, {"store.write_s", "s"}, {"store.hits", "count"}, {"store.misses", "count"}, {"store.writes", "count"},
	{"store.records", "count"}, {"store.hit_ratio", "ratio"}, {"store.self_s", "s"},
	{"mutate.run_s", "s"}, {"mutate.gen_s", "s"}, {"mutate.check_s", "s"}, {"mutate.shrink_s", "s"}, {"mutate.replay_s", "s"},
	{"mutate.generated", "count"}, {"mutate.rejected", "count"}, {"mutate.deduped", "count"}, {"mutate.unique_ratio", "ratio"},
	{"mutate.corpus", "count"}, {"mutate.self_s", "s"},
	{"pass_s", "s"}, {"cpu_sys_s", "s"}, {"setup_wall_s", "s"}, {"rss_peak_mb", "MB"}, {"checks_per_s", "1/s"}, {"runtime.gc_cpu_s", "s"}, {"runtime.retained_kb", "KB"},
	{"obs.overhead_ratio", "ratio"}, {"bench.traced_pass_s", "s"}, {"bench.unattributed_s", "s"},
	{"verdict_mismatch", "count"}, {"error_ratio", "ratio"},
}
