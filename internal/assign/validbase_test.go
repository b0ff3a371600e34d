package assign_test

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/sparql"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// checkValidBase builds a Space from the bindings and compares its
// ValidBase with the map-and-sort.Strings oracle, row for row, nil
// included.
func checkValidBase(t *testing.T, name string, v *vocab.Vocabulary, q *oassisql.Query,
	bindings []map[string]vocab.Term, anchors map[string][]vocab.Term) {
	t.Helper()
	sp, err := assign.NewSpace(v, q, bindings, anchors)
	if err != nil {
		t.Fatal(err)
	}
	want := assign.ValidBaseKeySort(v, sp.Vars, bindings, len(q.Where) > 0)
	if !reflect.DeepEqual(sp.ValidBase, want) {
		t.Fatalf("%s: ValidBase (%d rows) differs from the key-sort oracle (%d rows)",
			name, len(sp.ValidBase), len(want))
	}
}

// pattern is `$s+ rel $o`, or `$s+ rel []` when o is empty.
func pattern(s, o string) oassisql.Pattern {
	p := oassisql.Pattern{S: oassisql.Var(s), SMult: oassisql.MultPlus,
		R: oassisql.TermAtom("rel"), O: oassisql.Atom{Kind: oassisql.AtomAny}, OMult: oassisql.MultOne}
	if o != "" {
		p.O = oassisql.Var(o)
	}
	return p
}

// TestValidBaseMatchesKeySort: the rows NewSpace sorts and compacts in one
// backing array come out as the rendered-key map sorted with sort.Strings
// did: on the travel domain, its bindings also shuffled and duplicated,
// the Figure 2 and Figure 3 queries (projections with duplicates), an
// unsatisfiable WHERE, a generated DAG of more than 256 terms (ids past
// 255, where key order and id order part) with an unbound variable
// ranging over its elements, alone and beside a bound one, and a query
// without mining variables.
func TestValidBaseMatchesKeySort(t *testing.T) {
	d, err := synth.GenerateDomain(synth.Travel)
	if err != nil {
		t.Fatal(err)
	}
	rows := slices.Clone(d.Sp.ValidBase)
	slices.SortFunc(rows, func(a, b []vocab.Term) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	var bindings []map[string]vocab.Term
	for _, r := range rows {
		bindings = append(bindings, map[string]vocab.Term{"y": r[0], "x": r[1]})
	}
	tq := &oassisql.Query{Select: oassisql.SelectFactSets, Support: 0.2,
		Satisfying: []oassisql.Pattern{{S: oassisql.Var("y"), SMult: oassisql.MultPlus,
			R: oassisql.TermAtom("doAt"), O: oassisql.Var("x"), OMult: oassisql.MultOne}}}
	anchors := map[string][]vocab.Term{"y": d.Sp.Vars[0].Anchors, "x": d.Sp.Vars[1].Anchors}
	checkValidBase(t, "travel", d.Voc, tq, bindings, anchors)
	rng := rand.New(rand.NewSource(7))
	dup := append(slices.Clone(bindings), bindings[:500]...)
	rng.Shuffle(len(dup), func(i, j int) { dup[i], dup[j] = dup[j], dup[i] })
	checkValidBase(t, "travel shuffled with duplicates", d.Voc, tq, dup, anchors)

	s := ontology.NewSample()
	for name, src := range map[string]string{
		"figure 2": `SELECT FACT-SETS
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
WITH SUPPORT = 0.4`,
		"figure 3": `SELECT FACT-SETS
WHERE
  $w subClassOf* Attraction.
  $x instanceOf $w.
  $x inside NYC.
  $x hasLabel "child-friendly".
  $y subClassOf* Activity
SATISFYING
  $y+ doAt $x
WITH SUPPORT = 0.4`,
		"unsatisfiable": `SELECT FACT-SETS
WHERE
  $x instanceOf NYC
SATISFYING
  $x doAt []
WITH SUPPORT = 0.4`,
	} {
		q := oassisql.MustParse(src)
		bs, err := sparql.Evaluate(s.Onto, q.Where)
		if err != nil {
			t.Fatal(err)
		}
		maps := make([]map[string]vocab.Term, len(bs))
		for i, b := range bs {
			maps[i] = b
		}
		checkValidBase(t, name, s.Voc, q, maps, sparql.Anchors(s.Voc, q.Where))
	}

	g, err := synth.GenerateSpace(synth.DAGConfig{Width: 300, Depth: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if g.Voc.Len() <= 256 {
		t.Fatalf("the generated DAG has %d terms: the check needs ids past 255", g.Voc.Len())
	}
	one := &oassisql.Query{Satisfying: []oassisql.Pattern{pattern("y", "")}}
	checkValidBase(t, "empty WHERE, one unbound variable", g.Voc, one, nil, nil)
	two := &oassisql.Query{Satisfying: []oassisql.Pattern{pattern("y", "x")}}
	var some []map[string]vocab.Term
	for _, y := range []vocab.Term{3, 300, 1, 300, 258} {
		some = append(some, map[string]vocab.Term{"y": y, "w": 2})
	}
	checkValidBase(t, "$x unbound beside a bound $y", g.Voc, two, some, nil)
	none := &oassisql.Query{Satisfying: []oassisql.Pattern{{S: oassisql.Atom{Kind: oassisql.AtomAny},
		R: oassisql.TermAtom("rel"), O: oassisql.Atom{Kind: oassisql.AtomAny}}}}
	checkValidBase(t, "no mining variable", g.Voc, none, some, nil)
	checkValidBase(t, "no mining variable, no binding", g.Voc, none, nil, nil)
}
