package main

import (
	"testing"
	"time"
)

func seq(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(n - i) // descending, so summarize must sort
	}
	return s
}

func TestSummarizeExactQuantiles(t *testing.T) {
	cases := []struct {
		n          int
		p50, tailP int
		tail       int64
	}{
		// Nearest rank: the p-th percentile of 1..n is ceil(p·n/100).
		{n: 1000, p50: 500, tailP: 99, tail: 990}, // exactly 10 samples beyond p99
		{n: 999, p50: 500, tailP: 98, tail: 980},  // p99 would leave 9: fall back
		{n: 200, p50: 100, tailP: 95, tail: 190},  // 10 beyond p95, 8 beyond p96
		{n: 21, p50: 11, tailP: 52, tail: 11},     // ceil(52·21/100)=11, 10 beyond
		{n: 20, p50: 10, tailP: 50, tail: 10},     // no tail qualifies: the median
		{n: 10, p50: 5, tailP: 50, tail: 5},
		{n: 1, p50: 1, tailP: 50, tail: 1},
	}
	for _, c := range cases {
		d, err := summarize(seq(c.n))
		if err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		if d.n != c.n || d.p50 != int64(c.p50) || d.tailP != c.tailP || d.tail != c.tail || d.max != int64(c.n) {
			t.Errorf("n=%d: got %+v, want p50=%d p%d=%d max=%d", c.n, d, c.p50, c.tailP, c.tail, c.n)
		}
		if beyond := c.n - rank(d.tailP, c.n); c.n >= 2*minTail && beyond < minTail {
			t.Errorf("n=%d: only %d samples beyond p%d", c.n, beyond, d.tailP)
		}
	}
}

func TestSummarizeUnevenSamples(t *testing.T) {
	d, err := summarize([]int64{50, 10, 40, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if d.p50 != 30 || d.max != 50 {
		t.Errorf("got %+v, want p50 30 max 50", d)
	}
	if _, err := summarize(nil); err == nil {
		t.Error("summarize of no samples succeeded")
	}
}

func TestMedian(t *testing.T) {
	in := []float64{0.3, 0.1, 0.5, 0.2, 0.4}
	if got := median(in); got != 0.3 {
		t.Errorf("median = %v, want 0.3", got)
	}
	if in[0] != 0.3 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of four = %v, want the lower middle 2", got)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},   // 0: root
		{start: 10, end: 40, parent: 0},    // 1: child
		{start: 30, end: 60, parent: 0},    // 2: child overlapping 1
		{start: 80, end: 120, parent: 0},   // 3: child running past the root
		{start: 12, end: 20, parent: 0},    // 4: child inside 1
		{start: 15, end: 25, parent: 1},    // 5: grandchild
		{start: 35, end: 50, parent: 2},    // 6: grandchild
		{start: 45, end: 55, parent: 2},    // 7: grandchild overlapping 6
		{start: 200, end: 210, parent: -1}, // 8: second root, no children
	}
	// root: 100 minus the union [10,60] ∪ [80,100] of its children = 30.
	want := []int64{30, 20, 10, 40, 8, 10, 15, 10, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTracerSelfTimesSumToRootTime(t *testing.T) {
	tr := newTracer(time.Now(), 0, nil, spCoreNext)
	var roots time.Duration
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		op := tr.begin(spBench)
		sp := tr.begin(spCoreNext)
		tr.setQID(sp, int64(i))
		c := tr.begin(spCrowd)
		time.Sleep(time.Millisecond)
		tr.end(c)
		tr.end(sp)
		tr.end(op)
		roots += time.Since(t0)
	}
	a := tr.collect()
	for i, s := range a.self {
		if s < 0 {
			t.Errorf("%s: negative self time %d", spanNames[i], s)
		}
	}
	if a.count[spBench] != 3 || a.count[spCoreNext] != 3 || len(a.durs[spCoreNext]) != 3 || len(a.durs[spCrowd]) != 0 {
		t.Errorf("counts %v, kept %d next and %d crowd durations", a.count, len(a.durs[spCoreNext]), len(a.durs[spCrowd]))
	}
	if total := time.Duration(a.total()); total > roots || a.self[spCrowd] < int64(3*time.Millisecond) {
		t.Errorf("self times sum to %v of %v measured around the roots; crowd self %v", total, roots, time.Duration(a.self[spCrowd]))
	}
	if again := tr.collect(); again.total() != 0 {
		t.Error("collect did not reset the aggregates")
	}
}
