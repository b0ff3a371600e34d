package aggregate

import (
	"fmt"
	"testing"
)

// BenchmarkSpeciesObserve measures the streaming singleton-count update
// on the discovery hot path (one observation per descent chain).
func BenchmarkSpeciesObserve(b *testing.B) {
	s := NewSpeciesStop()
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
