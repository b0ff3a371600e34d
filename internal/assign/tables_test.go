package assign_test

import (
	"fmt"
	"reflect"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// checkTables compares sp's lattice tables with the Leq-sweep oracle on
// every variable, entry for entry, nil included.
func checkTables(t *testing.T, name string, sp *assign.Space) {
	t.Helper()
	got, want := sp.View(), sp.LeqSweepView()
	for i, vs := range sp.Vars {
		for _, f := range []struct {
			field     string
			got, want []vocab.Term
		}{
			{"validAt", got.ValidAt[i], want.ValidAt[i]},
			{"domains", got.Domains[i], want.Domains[i]},
			{"minVals", got.MinVals[i], want.MinVals[i]},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Fatalf("%s: $%s %s = %v, oracle %v", name, vs.Name, f.field, f.got, f.want)
			}
		}
		if len(got.Covers[i]) != len(want.Covers[i]) {
			t.Fatalf("%s: $%s has %d cover lists, oracle %d", name, vs.Name, len(got.Covers[i]), len(want.Covers[i]))
		}
		for v := range want.Covers[i] {
			if !reflect.DeepEqual(got.Covers[i][v], want.Covers[i][v]) {
				t.Fatalf("%s: $%s covers of %s = %v, oracle %v", name, vs.Name, sp.Voc.Name(vocab.Term(v)),
					got.Covers[i][v], want.Covers[i][v])
			}
		}
	}
}

// TestTablesMatchLeqSweep: the cover lists read off the closure rows, and
// the domains, lattice floors and valid values beside them, equal the
// O(D·V) Leq sweep on generated DAGs with one and two mined variables,
// with and without second parents and multiplicities, on the travel
// domain, on the Figure 2 and Figure 3 queries, and on a query whose
// anchor has ancestors outside the domain.
func TestTablesMatchLeqSweep(t *testing.T) {
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
				checkTables(t, fmt.Sprintf("%+v", cfg), s.Sp)
			}
		}
	}
	d, err := synth.GenerateDomain(synth.Travel)
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, "travel", d.Sp)
	checkTables(t, "figure 3", querySpace(t, `
SELECT FACT-SETS
WHERE
  $w subClassOf* Attraction.
  $x instanceOf $w.
  $x inside NYC.
  $x hasLabel "child-friendly".
  $y subClassOf* Activity
SATISFYING
  $y+ doAt $x
WITH SUPPORT = 0.4`))
	checkTables(t, "figure 2", querySpace(t, `
SELECT FACT-SETS
WHERE
  $w subClassOf* Attraction.
  $x instanceOf $w.
  $x inside NYC.
  $x hasLabel "child-friendly".
  $y subClassOf* Activity .
  $z instanceOf Restaurant.
  $z nearBy $x
SATISFYING
  $y+ doAt $x .
  [] eatAt $z
WITH SUPPORT = 0.4`))
	// $y is anchored at Sport, below Activity and Thing: the valid values'
	// closure rows name both, and neither may gain a cover list.
	sp := querySpace(t, `
SELECT FACT-SETS
WHERE
  $y subClassOf* Sport .
  $x instanceOf Park
SATISFYING
  $y+ doAt $x
WITH SUPPORT = 0.4`)
	if yi := sp.VarIndex("y"); len(sp.Vars[yi].Anchors) == 0 {
		t.Fatalf("$y has no anchor: %+v", sp.Vars[yi])
	}
	checkTables(t, "anchored at Sport", sp)
}

// BenchmarkNewTablesLattice measures building the lattice tables of one
// mine-lattice-shaped plan: a width-500, depth-7 synthetic DAG with
// multiplicities on, every term below the root valid.
func BenchmarkNewTablesLattice(b *testing.B) {
	s, err := synth.GenerateSpace(synth.DAGConfig{Width: 500, Depth: 7, Multiplicities: true, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign.NewTables(s.Voc, s.Sp.Vars, s.Sp.ValidBase)
	}
}
