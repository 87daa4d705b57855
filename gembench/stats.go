package main

import (
	"runtime/metrics"
	"sort"
)

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest sample that still has at least ten
// samples above it, and which whole percentile that is. xs must hold at
// least eleven samples.
func tailPercentile(xs []float64) (float64, int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return s[n-11], 100 * (n - 10) / n
}

// meanMaps averages each key over the maps (a key missing from a map
// counts as 0 there).
func meanMaps(ms []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range ms {
		for k, v := range m {
			out[k] += v / float64(len(ms))
		}
	}
	return out
}

var (
	gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	heapSample  = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
)

// gcCPUSeconds is the runtime's estimate of CPU time spent in the
// garbage collector so far, on all threads.
func gcCPUSeconds() float64 {
	metrics.Read(gcCPUSample)
	if gcCPUSample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return gcCPUSample[0].Value.Float64()
}

// heapAllocBytes is the cumulative number of bytes allocated on the
// heap; it needs no stop-the-world, so it can bracket short calls.
func heapAllocBytes() uint64 {
	metrics.Read(heapSample)
	if heapSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return heapSample[0].Value.Uint64()
}
