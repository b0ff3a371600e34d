package assign_test

import (
	"fmt"
	"math/rand"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/sparql"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// coverTally counts the outcomes the differential check saw, so the test
// can insist that both answers of each test were exercised.
type coverTally struct {
	covered, uncovered, multiCovered, multiUncovered, valid, invalid int
}

// checkCoverTest compares the scratch box-cover test and box walk with
// their oracles — through InA (memoized), the unmemoized test and IsValid —
// on every node a breadth-first successor walk from the lattice floor
// reaches (up to limit nodes), and on limit random assignments of up to
// three values per variable, drawn from the walked nodes' values and from
// the whole vocabulary, half of them canonical and half as drawn.
func checkCoverTest(t *testing.T, name string, sp *assign.Space, rng *rand.Rand, limit int, tally *coverTally) {
	t.Helper()
	check := func(a assign.Assignment, canonical bool) {
		t.Helper()
		want := sp.CoveredByValidBoxOracle(a)
		if got := sp.CoveredByValidBox(a); got != want {
			t.Fatalf("%s: %s: box-cover test %v, oracle %v", name, sp.Format(a), got, want)
		}
		if canonical {
			if got, want := sp.InA(a), sp.InAOracle(a); got != want {
				t.Fatalf("%s: %s: InA %v, oracle %v", name, sp.Format(a), got, want)
			}
		}
		if got, want := sp.IsValid(a), sp.IsValidOracle(a); got != want {
			t.Fatalf("%s: %s: IsValid %v, oracle %v", name, sp.Format(a), got, want)
		}
		multi := false
		for _, vs := range a.Vals {
			multi = multi || len(vs) > 1
		}
		switch {
		case want && multi:
			tally.multiCovered++
		case want:
			tally.covered++
		case multi:
			tally.multiUncovered++
		default:
			tally.uncovered++
		}
		if sp.IsValidOracle(a) {
			tally.valid++
		} else {
			tally.invalid++
		}
	}
	pool := make([][]vocab.Term, len(sp.Vars)) // values seen per variable
	queue := sp.Minimal()
	seen := map[string]bool{}
	for n := 0; n < len(queue) && len(seen) < limit; n++ {
		a := queue[n]
		if seen[a.Key()] {
			continue
		}
		seen[a.Key()] = true
		check(a, true)
		for i, vs := range a.Vals {
			pool[i] = append(pool[i], vs...)
		}
		queue = append(queue, sp.Successors(a)...)
	}
	if len(seen) < 2 {
		t.Fatalf("%s: successor walk reached %d nodes; the check needs a lattice", name, len(seen))
	}
	for trial := 0; trial < limit; trial++ {
		vals := make([][]vocab.Term, len(sp.Vars))
		for i := range vals {
			for k := rng.Intn(4); k > 0; k-- {
				v := vocab.Term(rng.Intn(sp.Voc.Len()))
				if rng.Intn(4) != 0 && len(pool[i]) > 0 {
					v = pool[i][rng.Intn(len(pool[i]))]
				}
				vals[i] = append(vals[i], v)
			}
		}
		// Odd trials keep the drawn value sets as they are, comparable
		// values included: only the unmemoized test and IsValid see those,
		// since InA would intern them as nodes.
		if trial%2 == 1 {
			check(assign.Assignment{Vals: vals}, false)
		} else {
			check(sp.NewAssignment(vals, nil), true)
		}
	}
}

// thinned rebuilds sp over a random three quarters of its valid base rows,
// so that valid values no longer pair freely: without it every generated
// space's valid set is a full product, and every box of covers is valid.
func thinned(sp *assign.Space, rng *rand.Rand) *assign.Space {
	var rows [][]vocab.Term
	for _, row := range sp.ValidBase {
		if rng.Intn(4) != 0 {
			rows = append(rows, row)
		}
	}
	return assign.FromShared(sp.Voc, sp.Vars, sp.Sat, sp.More, rows, nil)
}

// querySpace builds the mining space of an OASSIS-QL query over the sample
// ontology of the paper's Figure 1.
func querySpace(t *testing.T, src string) *assign.Space {
	t.Helper()
	s := ontology.NewSample()
	q := oassisql.MustParse(src)
	bs, err := sparql.Evaluate(s.Onto, q.Where)
	if err != nil {
		t.Fatal(err)
	}
	maps := make([]map[string]vocab.Term, len(bs))
	for i, b := range bs {
		maps[i] = b
	}
	sp, err := assign.NewSpace(s.Voc, q, maps, sparql.Anchors(s.Voc, q.Where))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestCoverTestMatchesOracle: the allocation-free box-cover test and box
// walk answer exactly as the closure-and-NewAssignment oracle does, on
// generated DAGs with and without second parents, with one and two mined
// variables, with multiplicities off and on — each as generated and with a
// thinned valid set — on the travel domain, and on the Figure 2 and
// Figure 3 queries.
func TestCoverTestMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var tally coverTally
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
				checkCoverTest(t, name, s.Sp, rng, 300, &tally)
				checkCoverTest(t, name+" thinned", thinned(s.Sp, rng), rng, 300, &tally)
			}
		}
	}
	d, err := synth.GenerateDomain(synth.Travel)
	if err != nil {
		t.Fatal(err)
	}
	checkCoverTest(t, "travel", d.Sp, rng, 300, &tally)
	checkCoverTest(t, "travel thinned", thinned(d.Sp, rng), rng, 300, &tally)
	checkCoverTest(t, "figure 3", querySpace(t, `
SELECT FACT-SETS
WHERE
  $w subClassOf* Attraction.
  $x instanceOf $w.
  $x inside NYC.
  $x hasLabel "child-friendly".
  $y subClassOf* Activity
SATISFYING
  $y+ doAt $x
WITH SUPPORT = 0.4`), rng, 300, &tally)
	checkCoverTest(t, "figure 2", querySpace(t, `
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
WITH SUPPORT = 0.4`), rng, 300, &tally)
	t.Logf("outcomes: %+v", tally)
	if tally.covered == 0 || tally.uncovered == 0 || tally.multiCovered == 0 || tally.multiUncovered == 0 {
		t.Errorf("covered and uncovered outcomes, single- and multi-valued, must all occur: %+v", tally)
	}
	if tally.valid == 0 || tally.invalid == 0 {
		t.Errorf("valid and invalid outcomes must both occur: %+v", tally)
	}
}
