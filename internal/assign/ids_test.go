package assign_test

import (
	"fmt"
	"slices"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/synth"
)

// checkSpaceIDs walks the lattice breadth-first from the floor through the
// id form of the successor moves (up to limit nodes) and checks the node
// table against the value API: an id names its node's key, every
// derivation of a node from any parent carries the node's one id, and the
// id-form moves are the value-form moves in the same order. A second Space
// over the same compiled parts, fed the first Space's nodes the way a
// replay feeds them, interns them and derives the same successors. It
// returns the number of nodes the walk derived from more than one parent.
func checkSpaceIDs(t *testing.T, name string, sp *assign.Space, limit int) (rederived int) {
	t.Helper()
	keys := func(as []assign.Assignment) []string {
		out := make([]string, len(as))
		for k, a := range as {
			out[k] = a.Key()
		}
		return out
	}
	idOf := map[string]uint32{} // first id seen per key
	sawID := func(where string, id uint32, a assign.Assignment) {
		t.Helper()
		if got := sp.Node(id).Key(); got != a.Key() {
			t.Fatalf("%s: %s: id %d names %q, want %q", name, where, id, got, a.Key())
		}
		if prev, ok := idOf[a.Key()]; ok && prev != id {
			t.Fatalf("%s: %s: %s has ids %d and %d", name, where, sp.Format(a), prev, id)
		}
		idOf[a.Key()] = id
	}
	var queue, succs, preds []uint32
	for _, m := range sp.Minimal() {
		id := sp.ID(m)
		sawID("minimal", id, m)
		if again := sp.ID(sp.NewAssignment(m.Vals, m.More)); again != id {
			t.Fatalf("%s: rebuilt minimal node has id %d, want %d", name, again, id)
		}
		queue = append(queue, id)
	}
	seen := map[uint32]bool{}
	derived := map[uint32]int{} // derivations per successor id
	var walked []assign.Assignment
	for n := 0; n < len(queue) && len(walked) < limit; n++ {
		id := queue[n]
		if seen[id] {
			continue
		}
		seen[id] = true
		a := sp.Node(id)
		walked = append(walked, a)
		succs = sp.AppendSuccessorIDs(succs[:0], id)
		got := make([]assign.Assignment, len(succs))
		for k, s := range succs {
			got[k] = sp.Node(s)
			sawID("successor of "+sp.Format(a), s, got[k])
			derived[s]++
		}
		if g, w := keys(got), keys(sp.Successors(a)); !slices.Equal(g, w) {
			t.Fatalf("%s: successors of %s: id form %d nodes, value form %d, or out of order",
				name, sp.Format(a), len(g), len(w))
		}
		preds = sp.AppendPredecessorIDs(preds[:0], id)
		got = got[:0]
		for _, p := range preds {
			got = append(got, sp.Node(p))
		}
		if g, w := keys(got), keys(sp.Predecessors(a)); !slices.Equal(g, w) {
			t.Fatalf("%s: predecessors of %s: id form %d nodes, value form %d, or out of order",
				name, sp.Format(a), len(g), len(w))
		}
		queue = append(queue, succs...)
	}
	if len(walked) < 2 {
		t.Fatalf("%s: the walk reached %d nodes; the check needs a lattice", name, len(walked))
	}
	for _, c := range derived {
		if c > 1 {
			rederived++
		}
	}

	fresh := assign.FromShared(sp.Voc, sp.Vars, sp.Sat, sp.More, sp.ValidBase, sp.Tables())
	fresh.MoreCandidates = sp.MoreCandidates
	for _, a := range walked {
		id := fresh.ID(a)
		if got := fresh.Node(id).Key(); got != a.Key() {
			t.Fatalf("%s: fresh space: id %d names %q, want %q", name, id, got, a.Key())
		}
		if g, w := keys(fresh.Successors(a)), keys(sp.Successors(a)); !slices.Equal(g, w) {
			t.Fatalf("%s: fresh space: successors of %s differ", name, sp.Format(a))
		}
		if again := fresh.ID(a); again != id {
			t.Fatalf("%s: fresh space: %s interned twice, ids %d and %d", name, sp.Format(a), id, again)
		}
	}
	return rederived
}

// TestSpaceIDs checks the node table on generated DAGs with and without
// second parents, with one and two mined variables and multiplicities on
// and off, and on the travel domain. Every space but the single-variable
// tree without multiplicities, whose lattice is the tree itself, must
// derive some node from two parents.
func TestSpaceIDs(t *testing.T) {
	seed := int64(0)
	for _, extra := range []float64{0, 0.3} {
		for _, xw := range []int{0, 5} {
			for _, mult := range []bool{false, true} {
				seed++
				cfg := synth.DAGConfig{Width: 14, Depth: 4, ExtraParentProb: extra,
					Multiplicities: mult, Seed: seed}
				if xw > 0 {
					cfg.XWidth, cfg.XDepth = xw, 3
				}
				s, err := synth.GenerateSpace(cfg)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%+v", cfg)
				tree := extra == 0 && xw == 0 && !mult
				if n := checkSpaceIDs(t, name, s.Sp, 300); n == 0 && !tree {
					t.Errorf("%s: no node was derived from two parents", name)
				}
			}
		}
	}
	d, err := synth.GenerateDomain(synth.Travel)
	if err != nil {
		t.Fatal(err)
	}
	if checkSpaceIDs(t, "travel", d.Sp, 300) == 0 {
		t.Error("travel: no node was derived from two parents")
	}
}
