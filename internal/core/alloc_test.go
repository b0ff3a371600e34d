package core

import (
	"testing"

	"oassis/internal/plan"
)

// TestAllocsPick gates the engine's pick as allocation-free under both
// orderings once warm: the paper order's comparator scan reads interned
// nodes and sealed keys, and max-prune rebuilds its candidate view in the
// engine's reused buffers over memoized neighbor lists, so nothing on the
// per-question pick is heap-bound.
func TestAllocsPick(t *testing.T) {
	_, _, sp := buildSpace(t, figure3Restricted)
	for _, policy := range plan.OrderingNames() {
		e := newEngine(Config{Space: sp, Theta: 0.4, Ordering: policy}, nil)
		e.seed()
		e.drainExpansions()
		// Warm: the first pick seals every candidate's memoized key and
		// sizes the view buffers.
		if _, ok := e.pickUnclassified(false); !ok {
			t.Fatalf("%s: seeded engine has no unclassified candidates", policy)
		}
		allocs := testing.AllocsPerRun(100, func() {
			e.pickUnclassified(false)
		})
		if allocs != 0 {
			t.Errorf("%s: pick allocates %.1f times per call, want 0", policy, allocs)
		}
	}
}
