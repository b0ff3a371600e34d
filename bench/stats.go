package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// rank returns the 1-based nearest-rank position of percentile p (1..100)
// among n sorted samples: ceil(p·n/100), in integer arithmetic so that no
// rounding error moves it.
func rank(p, n int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile returns the highest integer percentile up to 99 that
// leaves at least minTail samples beyond its nearest-rank position: 99 from
// 1000 samples up, less below. With fewer than 2·minTail samples no tail
// percentile qualifies and it falls back to the median.
func tailPercentile(n int) int {
	for p := 99; p > 50; p-- {
		if n-rank(p, n) >= minTail {
			return p
		}
	}
	return 50
}

// dist is an exact summary of raw duration samples (nanoseconds).
type dist struct {
	n     int
	p50   int64
	tailP int   // the percentile tail holds (99 with enough samples)
	tail  int64 // the tailP-th percentile
	max   int64
}

// summarize sorts the samples in place and reads exact nearest-rank
// quantiles from them.
func summarize(s []int64) (dist, error) {
	if len(s) == 0 {
		return dist{}, fmt.Errorf("no samples")
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	p := tailPercentile(n)
	return dist{
		n:     n,
		p50:   s[rank(50, n)-1],
		tailP: p,
		tail:  s[rank(p, n)-1],
		max:   s[n-1],
	}, nil
}

// median returns the median of a few float readings (the lower middle
// value for an even count), leaving the input unsorted.
func median(v []float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return c[(len(c)-1)/2]
}

// procStats are process-wide counters read at pass boundaries.
type procStats struct {
	alloc, mallocs  uint64
	gcCPU, totalCPU float64
}

func readProc() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	p := procStats{alloc: ms.TotalAlloc, mallocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU, p.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return p
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
