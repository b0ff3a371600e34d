package plan_test

import (
	"fmt"
	"testing"

	"oassis/internal/plan"
)

// benchCandidates builds a deterministic n-candidate table with varied
// sizes, fringe counts and answer state, shaped like a mid-run engine
// pool.
func benchCandidates(n int) []plan.Candidate {
	cs := make([]plan.Candidate, n)
	for i := range cs {
		cs[i] = plan.Candidate{
			Key:  fmt.Sprintf("k%04d", i),
			Size: 1 + i%5,
			Down: i % 7,
			Up:   (i * 3) % 11,
		}
		if i%3 == 0 {
			cs[i].Answers = 1 + i%4
			cs[i].Mean = float64(i%10) / 10
		}
	}
	return cs
}

// BenchmarkSelectorSelect measures one max-prune pick over a
// 256-candidate table — the unit the engine pays once per question under
// max-prune.
func BenchmarkSelectorSelect(b *testing.B) {
	cs := benchCandidates(256)
	var sel plan.MaxPrune
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sel.Select(cs, 0.2)
	}
}
