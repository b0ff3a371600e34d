package assign_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// checkWalkMatchesScan compares the minimal-addable walk with the
// full-domain scan on every variable of every node reached by a
// breadth-first successor walk from the lattice floor (up to limit nodes),
// and on random antichains of domain values, which need not be lattice
// nodes at all.
func checkWalkMatchesScan(t *testing.T, name string, sp *assign.Space, rng *rand.Rand, limit int) {
	t.Helper()
	check := func(i int, vals []vocab.Term) {
		t.Helper()
		want := sp.MinimalAddableScan(i, vals)
		if got := sp.MinimalAddable(i, vals); !slices.Equal(got, want) {
			t.Fatalf("%s: var %d vals %v: walk %v, scan %v", name, i, vals, got, want)
		}
	}
	queue := sp.Minimal()
	seen := map[string]bool{}
	for n := 0; n < len(queue) && len(seen) < limit; n++ {
		a := queue[n]
		if seen[a.Key()] {
			continue
		}
		seen[a.Key()] = true
		for i := range sp.Vars {
			check(i, a.Vals[i])
		}
		queue = append(queue, sp.Successors(a)...)
	}
	var terms []vocab.Term
	for x := vocab.Term(0); int(x) < sp.Voc.Len(); x++ {
		terms = append(terms, x)
	}
	for trial := 0; trial < limit; trial++ {
		i := rng.Intn(len(sp.Vars))
		vals := make([]vocab.Term, rng.Intn(4))
		for j := range vals {
			vals[j] = terms[rng.Intn(len(terms))]
		}
		check(i, sp.Voc.AppendReduceAntichain(nil, vals))
	}
	if len(seen) < 2 {
		t.Fatalf("%s: successor walk reached %d nodes; the check needs a lattice", name, len(seen))
	}
}

// TestMinimalAddableWalkMatchesScan: the top-down walk emits exactly the
// full-domain scan's set, in the same ascending order, on generated DAGs
// with and without second parents, with one and two mined variables, with
// every term or only leaves valid, with multiplicities on and off, and on
// the travel domain.
func TestMinimalAddableWalkMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seed := int64(0)
	for _, extra := range []float64{0, 0.3} {
		for _, xw := range []int{0, 5} {
			for _, leaves := range []bool{false, true} {
				for _, mult := range []bool{false, true} {
					seed++
					cfg := synth.DAGConfig{Width: 14, Depth: 4, ExtraParentProb: extra,
						ValidLeavesOnly: leaves, Multiplicities: mult, Seed: seed}
					if xw > 0 {
						cfg.XWidth, cfg.XDepth = xw, 3
					}
					s, err := synth.GenerateSpace(cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkWalkMatchesScan(t, fmt.Sprintf("%+v", cfg), s.Sp, rng, 300)
				}
			}
		}
	}
	d, err := synth.GenerateDomain(synth.Travel)
	if err != nil {
		t.Fatal(err)
	}
	checkWalkMatchesScan(t, "travel", d.Sp, rng, 300)
}

// TestAllocsMinimalAddable: a warm minimal-addable walk reuses its stack,
// visited set and output scratch, so it allocates nothing.
func TestAllocsMinimalAddable(t *testing.T) {
	s, err := synth.GenerateSpace(synth.DAGConfig{Width: 40, Depth: 5, ExtraParentProb: 0.2,
		Multiplicities: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	vals := []vocab.Term{s.Terms[len(s.Terms)-1]} // a deepest term
	if len(s.Sp.MinimalAddable(0, vals)) == 0 {
		t.Fatal("gate node has nothing addable")
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.Sp.MinimalAddable(0, vals)
	})
	if allocs != 0 {
		t.Fatalf("warm minimalAddable allocates %.1f times per call, want 0", allocs)
	}
}
