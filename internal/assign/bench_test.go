package assign

import (
	"math/rand"
	"testing"
)

// Microbenchmarks for the lattice hot path. The engine calls Successors
// from expansion, descent and MSP confirmation, so successor generation
// dominates per-answer CPU cost; the committed numbers in DESIGN.md's
// Performance section track these benches across PRs.

// BenchmarkSuccessors measures immediate-successor generation from a
// mid-lattice multi-value node of the Figure 3 space, the shape the engine
// expands most often on the running example.
func BenchmarkSuccessors(b *testing.B) {
	s, sp := buildSpace(b, figure3Query)
	a := node(s, sp, []string{"Biking", "Ball Game"}, "Central Park")
	if len(sp.Successors(a)) == 0 { // warm the lazy memos
		b.Fatal("benchmark node has no successors")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Successors(a)
	}
}

// BenchmarkSuccessorsCold measures successor generation the way a session
// meets its nodes: each op runs AppendSuccessorIDs on the next node of a
// breadth-first walk of the Figure 3 lattice, replayed on a fresh Space
// over the same compiled parts, so every node and every successor it emits
// is interned and box-cover tested there for the first time in the walk.
// Its allocs/op is the per-call count the repository benchmark's traced
// run reports as assign.successors.allocs_per_call.
func BenchmarkSuccessorsCold(b *testing.B) {
	_, sp := buildSpace(b, figure3Query)
	nodes := sp.Minimal()
	seen := map[string]bool{}
	for n := 0; n < len(nodes); n++ {
		for _, s := range sp.Successors(nodes[n]) {
			if !seen[s.Key()] {
				seen[s.Key()] = true
				nodes = append(nodes, s)
			}
		}
	}
	var fresh *Space
	var buf []uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(nodes)
		if k == 0 {
			b.StopTimer()
			fresh = FromShared(sp.Voc, sp.Vars, sp.Sat, sp.More, sp.ValidBase, sp.Tables())
			b.StartTimer()
		}
		buf = fresh.AppendSuccessorIDs(buf[:0], fresh.ID(nodes[k]))
	}
}

// BenchmarkSuccessorsWide measures successor generation across a sample of
// nodes of a wider random DAG space (the property-test generator), so the
// number is not an artifact of one lattice shape.
func BenchmarkSuccessorsWide(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	sp, _ := randomSpace(rng)
	var nodes []Assignment
	for i := 0; i < 64; i++ {
		if a, ok := sampleNode(sp, rng); ok {
			nodes = append(nodes, a)
		}
	}
	if len(nodes) == 0 {
		b.Fatal("no sample nodes")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Successors(nodes[i%len(nodes)])
	}
}

// BenchmarkPredecessors mirrors BenchmarkSuccessors for the downward moves
// used by classification inference.
func BenchmarkPredecessors(b *testing.B) {
	s, sp := buildSpace(b, figure3Query)
	a := node(s, sp, []string{"Biking", "Ball Game"}, "Central Park")
	if len(sp.Predecessors(a)) == 0 {
		b.Fatal("benchmark node has no predecessors")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Predecessors(a)
	}
}

// BenchmarkInA measures the explored-set membership test on successor-shaped
// nodes (memo-warm), the guard every generated candidate passes through.
func BenchmarkInA(b *testing.B) {
	s, sp := buildSpace(b, figure3Query)
	seed := node(s, sp, []string{"Biking", "Ball Game"}, "Central Park")
	nodes := append([]Assignment{seed}, sp.Successors(seed)...)
	for _, n := range nodes {
		sp.InA(n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.InA(nodes[i%len(nodes)])
	}
}
