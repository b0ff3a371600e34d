package assign

import "testing"

// Allocation gates for the interned hot path. The raw-speed pass holds its
// wins through these: if a change re-introduces per-call allocation on the
// sealed key, the precomputed table lookups, or successor generation, the
// gate fails before the benchmarks ever drift.

// TestAllocsSealedKey: a sealed assignment serves its canonical key without
// allocating (the engine calls Key on every pool probe and policy compare).
func TestAllocsSealedKey(t *testing.T) {
	s, sp := buildSpace(t, figure3Query)
	a := node(s, sp, []string{"Biking", "Ball Game"}, "Central Park")
	_ = a.Key() // seal
	allocs := testing.AllocsPerRun(100, func() {
		_ = a.Key()
	})
	if allocs != 0 {
		t.Fatalf("sealed Key allocates %.1f times per call, want 0", allocs)
	}
}

// TestAllocsDomainLookup: the precomputed table probes backing successor
// generation — domain membership, anchor admissibility, covers — are pure
// slice/bitset reads with zero allocation.
func TestAllocsDomainLookup(t *testing.T) {
	s, sp := buildSpace(t, figure3Query)
	tab := sp.Tables()
	a := node(s, sp, []string{"Biking", "Ball Game"}, "Central Park")
	v := a.Vals[0][0]
	allocs := testing.AllocsPerRun(100, func() {
		if !tab.inDomain(0, v) {
			t.Fatal("benchmark value left its own domain")
		}
		_ = tab.anchorOK(0, v)
		_ = tab.coversOf(0, v)
	})
	if allocs != 0 {
		t.Fatalf("interned domain lookups allocate %.1f times per call, want 0", allocs)
	}
}

// TestAllocsSuccessors: once a node's successors are in the node table,
// the id form of successor generation allocates nothing, and the value
// form only its result slice — not one allocation per candidate (the seed
// paid 65 on this node).
func TestAllocsSuccessors(t *testing.T) {
	s, sp := buildSpace(t, figure3Query)
	a := node(s, sp, []string{"Biking", "Ball Game"}, "Central Park")
	succs := sp.Successors(a) // warm the node table
	if len(succs) == 0 {
		t.Fatal("gate node has no successors")
	}
	id := sp.ID(a)
	buf := make([]uint32, 0, len(succs))
	if allocs := testing.AllocsPerRun(100, func() {
		buf = sp.AppendSuccessorIDs(buf[:0], id)
	}); allocs != 0 {
		t.Fatalf("warm AppendSuccessorIDs allocates %.1f times per call, want 0", allocs)
	}
	const maxAllocs = 1
	allocs := testing.AllocsPerRun(100, func() {
		sp.Successors(a)
	})
	if allocs > maxAllocs {
		t.Fatalf("warm Successors allocates %.1f times per call, want <= %d", allocs, maxAllocs)
	}
}

// TestAllocsCoverTest: with its scratch warm, the box-cover test on a
// multi-valued two-variable node — the test every node gets on first
// sight — allocates nothing, and neither does the box walk behind IsValid.
func TestAllocsCoverTest(t *testing.T) {
	s, sp := buildSpace(t, figure3Query)
	a := node(s, sp, []string{"Biking", "Ball Game"}, "Central Park")
	if !sp.coveredByValidBox(a) { // warm the scratch
		t.Fatal("gate node is not covered")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		sp.coveredByValidBox(a)
	}); allocs != 0 {
		t.Fatalf("warm box-cover test allocates %.1f times per call, want 0", allocs)
	}
	sp.IsValid(a)
	if allocs := testing.AllocsPerRun(100, func() {
		sp.IsValid(a)
	}); allocs != 0 {
		t.Fatalf("IsValid allocates %.1f times per call, want 0", allocs)
	}
}
