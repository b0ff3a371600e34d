package aggregate

import (
	"fmt"
	"testing"
)

// BenchmarkSpeciesObserve measures the streaming frequency-of-frequencies
// update on the discovery hot path (one observation per descent chain).
func BenchmarkSpeciesObserve(b *testing.B) {
	s := NewSpeciesStop(2, 1) // target > 1: never latches
	keys := make([]string, 256)
	members := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("p%03d", i)
	}
	for i := range members {
		members[i] = fmt.Sprintf("m%02d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ObserveDiscovery(keys[i%len(keys)], members[(i/7)%len(members)])
	}
}

// BenchmarkSpeciesEstimate measures the O(1) Chao92 estimate the engine
// polls between questions.
func BenchmarkSpeciesEstimate(b *testing.B) {
	s := NewSpeciesStop(2, 1)
	for i := 0; i < 4096; i++ {
		s.ObserveDiscovery(fmt.Sprintf("p%03d", i%300), fmt.Sprintf("m%02d", i%40))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Estimate()
	}
}
