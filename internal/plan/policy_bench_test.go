package plan_test

import (
	"fmt"
	"testing"

	"oassis/internal/plan"
)

// benchView builds a deterministic n-candidate view with varied sizes,
// fringe counts and answer state, shaped like a mid-run engine pool.
func benchView(n int) fakeView {
	v := fakeView{theta: 0.2}
	for i := 0; i < n; i++ {
		c := fakeCand{
			key:  fmt.Sprintf("k%04d", i),
			size: 1 + i%5,
			down: i % 7,
			up:   (i * 3) % 11,
		}
		if i%3 == 0 {
			c.answers = 1 + i%4
			c.mean = float64(i%10) / 10
		}
		v.cands = append(v.cands, c)
	}
	return v
}

// BenchmarkSelectorSelect measures one max-prune pick over a
// 256-candidate view — the unit the engine pays once per question under
// max-prune.
func BenchmarkSelectorSelect(b *testing.B) {
	v := benchView(256)
	var sel plan.MaxPrune
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sel.Select(v)
	}
}
