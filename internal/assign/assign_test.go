package assign

import (
	"testing"

	"oassis/internal/fact"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/sparql"
	"oassis/internal/vocab"
)

// figure3Query is the Figure 2 query restricted to its grey-highlighted
// parts, which is the setting of the Figure 3 lattice in the paper.
const figure3Query = `
SELECT FACT-SETS
WHERE
  $w subClassOf* Attraction.
  $x instanceOf $w.
  $x inside NYC.
  $x hasLabel "child-friendly".
  $y subClassOf* Activity
SATISFYING
  $y+ doAt $x
WITH SUPPORT = 0.4
`

// buildSpace evaluates the query's WHERE clause on the sample ontology and
// assembles the mining space, the way the engine does.
func buildSpace(t testing.TB, src string) (*ontology.Sample, *Space) {
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
	sp, err := NewSpace(s.Voc, q, maps, sparql.Anchors(s.Voc, q.Where))
	if err != nil {
		t.Fatal(err)
	}
	return s, sp
}

// node builds the (y, x) assignment from term names, mirroring the node
// labels of Figure 3.
func node(s *ontology.Sample, sp *Space, ys []string, x string) Assignment {
	yi, xi := sp.VarIndex("y"), sp.VarIndex("x")
	vals := make([][]vocab.Term, len(sp.Vars))
	for _, y := range ys {
		vals[yi] = append(vals[yi], s.T(y))
	}
	vals[xi] = []vocab.Term{s.T(x)}
	return sp.NewAssignment(vals, nil)
}

func TestSpaceConstruction(t *testing.T) {
	_, sp := buildSpace(t, figure3Query)
	if len(sp.Vars) != 2 {
		t.Fatalf("vars = %v", sp.Vars)
	}
	if sp.Vars[0].Name != "y" || sp.Vars[1].Name != "x" {
		t.Fatalf("var order = %s,%s (want y,x)", sp.Vars[0].Name, sp.Vars[1].Name)
	}
	if sp.Vars[0].Mult != oassisql.MultPlus || sp.Vars[1].Mult != oassisql.MultOne {
		t.Errorf("mults = %v, %v", sp.Vars[0].Mult, sp.Vars[1].Mult)
	}
	// 13 activity-closure values × 2 child-friendly NYC attractions.
	if len(sp.ValidBase) != 26 {
		t.Errorf("|ValidBase| = %d, want 26", len(sp.ValidBase))
	}
}

func TestMinimalIsFigure3Top(t *testing.T) {
	s, sp := buildSpace(t, figure3Query)
	min := sp.Minimal()
	if len(min) != 1 {
		t.Fatalf("minimal = %d nodes", len(min))
	}
	want := node(s, sp, []string{"Activity"}, "Attraction")
	if !min[0].Equal(want) {
		t.Errorf("minimal = %s, want (Activity, Attraction)", sp.Format(min[0]))
	}
}

func TestLeqExamples(t *testing.T) {
	s, sp := buildSpace(t, figure3Query)
	n15 := node(s, sp, []string{"Sport"}, "Central Park")
	n16 := node(s, sp, []string{"Biking"}, "Central Park")
	n17 := node(s, sp, []string{"Ball Game"}, "Central Park")
	n20 := node(s, sp, []string{"Baseball"}, "Central Park")
	n18 := node(s, sp, []string{"Biking", "Ball Game"}, "Central Park")
	if !sp.Leq(n15, n16) || !sp.Leq(n15, n17) {
		t.Error("(CP,Sport) ≤ specializations expected")
	}
	if !sp.Leq(n17, n20) {
		t.Error("(CP,Ball Game) ≤ (CP,Baseball) expected")
	}
	if sp.Leq(n16, n17) || sp.Leq(n17, n16) {
		t.Error("Biking and Ball Game nodes should be incomparable")
	}
	if !sp.Leq(n16, n18) || !sp.Leq(n17, n18) {
		t.Error("both mult-1 nodes should precede the mult-2 node 18")
	}
	if sp.Leq(n18, n16) {
		t.Error("mult-2 node below mult-1 node")
	}
	if !sp.Leq(n15, n15) {
		t.Error("Leq not reflexive")
	}
}

func TestAntichainCanonicalization(t *testing.T) {
	s, sp := buildSpace(t, figure3Query)
	// {Sport, Ball Game} collapses to {Ball Game}.
	a := node(s, sp, []string{"Sport", "Ball Game"}, "Central Park")
	want := node(s, sp, []string{"Ball Game"}, "Central Park")
	if !a.Equal(want) {
		t.Errorf("canonicalization failed: %s", sp.Format(a))
	}
}

func TestValidity(t *testing.T) {
	s, sp := buildSpace(t, figure3Query)
	valid := []Assignment{
		node(s, sp, []string{"Biking"}, "Central Park"),
		node(s, sp, []string{"Ball Game"}, "Central Park"),
		node(s, sp, []string{"Feed a Monkey"}, "Bronx Zoo"),
		node(s, sp, []string{"Activity"}, "Central Park"),
		// Multiplicity 2 via combination (Example 3.2).
		node(s, sp, []string{"Biking", "Ball Game"}, "Central Park"),
	}
	for _, a := range valid {
		if !sp.IsValid(a) {
			t.Errorf("%s should be valid", sp.Format(a))
		}
		if !sp.InA(a) {
			t.Errorf("%s should be in 𝒜", sp.Format(a))
		}
	}
	invalid := []Assignment{
		node(s, sp, []string{"Sport"}, "Park"),    // Park is not an instance
		node(s, sp, []string{"Sport"}, "Outdoor"), // ditto
		node(s, sp, []string{"Activity"}, "Attraction"),
	}
	for _, a := range invalid {
		if sp.IsValid(a) {
			t.Errorf("%s should be invalid", sp.Format(a))
		}
		if !sp.InA(a) {
			t.Errorf("%s should still be in 𝒜 (generalization of valid)", sp.Format(a))
		}
	}
	// Madison Square is inside NYC but not child-friendly: not even in 𝒜.
	ms := node(s, sp, []string{"Sport"}, "Madison Square")
	if sp.InA(ms) {
		t.Error("(Madison Square, Sport) should be outside 𝒜")
	}
	// Indoor never generalizes a valid x value.
	indoor := node(s, sp, []string{"Sport"}, "Indoor")
	if sp.InA(indoor) {
		t.Error("(Indoor, Sport) should be outside 𝒜")
	}
}

func TestSuccessorsFigure3(t *testing.T) {
	s, sp := buildSpace(t, figure3Query)
	// Node 17 (Central Park, Ball Game): successors are the one-step
	// specializations of Ball Game within the domain (Basketball, Baseball,
	// but not Water Polo, which is also below Water Sport — it stays in the
	// domain, so it is included) plus mult-2 extensions with minimal
	// incomparable additions.
	n17 := node(s, sp, []string{"Ball Game"}, "Central Park")
	succs := sp.Successors(n17)
	keys := map[string]bool{}
	for _, b := range succs {
		keys[sp.Format(b)] = true
	}
	for _, want := range []Assignment{
		node(s, sp, []string{"Basketball"}, "Central Park"),
		node(s, sp, []string{"Baseball"}, "Central Park"),
		node(s, sp, []string{"Water Polo"}, "Central Park"),
		node(s, sp, []string{"Ball Game", "Biking"}, "Central Park"), // node 18
		node(s, sp, []string{"Ball Game", "Water Sport"}, "Central Park"),
		node(s, sp, []string{"Ball Game", "Food"}, "Central Park"),
		node(s, sp, []string{"Ball Game", "Feed a Monkey"}, "Central Park"),
	} {
		if !keys[sp.Format(want)] {
			t.Errorf("missing successor %s of node 17 (have %v)", sp.Format(want), keys)
		}
	}
	// Sport must not be addable (comparable with Ball Game).
	bad := node(s, sp, []string{"Ball Game", "Sport"}, "Central Park")
	_ = bad // canonicalizes to {Ball Game}; ensure no successor equals n17 itself
	for _, b := range succs {
		if b.Equal(n17) {
			t.Error("successor equals the node itself")
		}
		if !sp.Lt(n17, b) {
			t.Errorf("successor %s not strictly above node 17", sp.Format(b))
		}
	}
}

func TestSuccessorsOfMinimal(t *testing.T) {
	s, sp := buildSpace(t, figure3Query)
	top := node(s, sp, []string{"Activity"}, "Attraction")
	succs := sp.Successors(top)
	keys := map[string]bool{}
	for _, b := range succs {
		keys[sp.Format(b)] = true
	}
	for _, want := range []Assignment{
		node(s, sp, []string{"Sport"}, "Attraction"),
		node(s, sp, []string{"Food"}, "Attraction"),
		node(s, sp, []string{"Feed a Monkey"}, "Attraction"),
		node(s, sp, []string{"Activity"}, "Outdoor"), // node 2
	} {
		if !keys[sp.Format(want)] {
			t.Errorf("missing successor %s of the top node", sp.Format(want))
		}
	}
	// Indoor is not in the domain: (Indoor, Activity) must be absent.
	absent := node(s, sp, []string{"Activity"}, "Indoor")
	if keys[sp.Format(absent)] {
		t.Error("(Indoor, Activity) generated despite empty Indoor subtree")
	}
}

func TestPredecessorsInverseOfSuccessors(t *testing.T) {
	s, sp := buildSpace(t, figure3Query)
	nodes := []Assignment{
		node(s, sp, []string{"Sport"}, "Central Park"),
		node(s, sp, []string{"Ball Game"}, "Central Park"),
		node(s, sp, []string{"Ball Game", "Biking"}, "Central Park"),
		node(s, sp, []string{"Activity"}, "Outdoor"),
	}
	for _, a := range nodes {
		for _, b := range sp.Successors(a) {
			preds := sp.Predecessors(b)
			found := false
			for _, p := range preds {
				if p.Equal(a) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s missing from predecessors of its successor %s",
					sp.Format(a), sp.Format(b))
			}
		}
	}
	// The top node has no predecessors.
	top := node(s, sp, []string{"Activity"}, "Attraction")
	if preds := sp.Predecessors(top); len(preds) != 0 {
		t.Errorf("top node has predecessors: %d", len(preds))
	}
}

func TestInstantiate(t *testing.T) {
	s, sp := buildSpace(t, figure3Query)
	a := node(s, sp, []string{"Biking", "Ball Game"}, "Central Park")
	fs := sp.Instantiate(a)
	want := fact.Set{
		s.Fact("Biking", "doAt", "Central Park"),
		s.Fact("Ball Game", "doAt", "Central Park"),
	}
	if !fs.Equal(want) {
		t.Errorf("Instantiate = %s", fs.Format(s.Voc))
	}
	// Question key identifies the fact-set, not the assignment.
	b := node(s, sp, []string{"Biking", "Ball Game"}, "Central Park")
	if sp.Instantiate(a).Key() != sp.Instantiate(b).Key() {
		t.Error("question keys differ for equal assignments")
	}
}

func TestInstantiateDropsEmptyVars(t *testing.T) {
	// A * variable with an empty value set deletes its meta-facts.
	src := `SELECT FACT-SETS
WHERE
  $x instanceOf Park .
  $y subClassOf* Activity
SATISFYING
  $y* doAt $x .
  Falafel eatAt "Maoz Veg"
WITH SUPPORT = 0.2`
	s, sp := buildSpace(t, src)
	yi, xi := sp.VarIndex("y"), sp.VarIndex("x")
	vals := make([][]vocab.Term, len(sp.Vars))
	vals[xi] = []vocab.Term{s.T("Central Park")}
	_ = yi
	a := sp.NewAssignment(vals, nil)
	fs := sp.Instantiate(a)
	want := fact.Set{s.Fact("Falafel", "eatAt", "Maoz Veg")}
	if !fs.Equal(want) {
		t.Errorf("Instantiate = %s, want only the constant fact", fs.Format(s.Voc))
	}
	if !sp.InA(a) {
		t.Error("empty * variable should be allowed in 𝒜")
	}
}

func TestCombineProposition51(t *testing.T) {
	s, sp := buildSpace(t, figure3Query)
	// Valid assignments differing in one variable combine into a valid
	// assignment: the union on that variable.
	for _, n := range []Assignment{
		node(s, sp, []string{"Biking"}, "Central Park"),
		node(s, sp, []string{"Baseball"}, "Central Park"),
	} {
		if !sp.IsValid(n) {
			t.Fatalf("%s should be valid", sp.Format(n))
		}
	}
	c := node(s, sp, []string{"Biking", "Baseball"}, "Central Park")
	if !sp.IsValid(c) {
		t.Error("combination of valid assignments should be valid (Prop 5.1)")
	}
}

func TestMoreSuccessors(t *testing.T) {
	s, sp := buildSpace(t, figure3Query)
	sp.More = true
	sp.MoreCandidates = fact.Set{
		s.Fact("Rent Bikes", "doAt", "Boathouse"),
		s.Fact("Falafel", "eatAt", "Maoz Veg"),
		s.Fact("Food", "eatAt", "Maoz Veg"), // generalization of the falafel fact
	}
	a := node(s, sp, []string{"Biking"}, "Central Park")
	succs := sp.Successors(a)
	var withMore []Assignment
	for _, b := range succs {
		if len(b.More) > 0 {
			withMore = append(withMore, b)
		}
	}
	// Minimal additions: Rent Bikes (no pool generalization) and
	// Food eatAt Maoz Veg (the general one); Falafel is not minimal.
	if len(withMore) != 2 {
		for _, b := range withMore {
			t.Logf("more successor: %s", sp.Format(b))
		}
		t.Fatalf("got %d MORE successors, want 2", len(withMore))
	}
	// From the Food node, specializing to Falafel is a successor.
	foodNode := a.Clone()
	foodNode.More = fact.Set{s.Fact("Food", "eatAt", "Maoz Veg")}
	found := false
	for _, b := range sp.Successors(foodNode) {
		if len(b.More) == 1 && b.More[0] == s.Fact("Falafel", "eatAt", "Maoz Veg") {
			found = true
		}
	}
	if !found {
		t.Error("specializing a MORE fact not generated")
	}
	// Instantiate includes MORE facts.
	fs := sp.Instantiate(foodNode)
	if !fs.Contains(s.Fact("Food", "eatAt", "Maoz Veg")) {
		t.Error("MORE fact missing from instantiation")
	}
}

func TestItemsetCaptureSpace(t *testing.T) {
	// Empty WHERE with $x+ [] []: x ranges over all elements.
	s, sp := buildSpace(t, `SELECT FACT-SETS WHERE SATISFYING $x+ [] [] WITH SUPPORT = 0.1`)
	if len(sp.Vars) != 1 {
		t.Fatalf("vars = %d", len(sp.Vars))
	}
	if got, want := len(sp.ValidBase), s.Voc.CountKind(vocab.Element); got != want {
		t.Errorf("|ValidBase| = %d, want %d (all elements)", got, want)
	}
	// Minimal elements: the element roots — Thing, plus the vocabulary-only
	// terms Boathouse and Rent Bikes, which have no order parents.
	min := sp.Minimal()
	if len(min) != 3 {
		t.Fatalf("minimal = %d, want 3 (Thing, Boathouse, Rent Bikes)", len(min))
	}
	roots := map[string]bool{}
	for _, m := range min {
		roots[s.Voc.Name(m.Vals[0][0])] = true
	}
	if !roots["Thing"] || !roots["Boathouse"] || !roots["Rent Bikes"] {
		t.Errorf("minimal roots = %v", roots)
	}
	// Instantiation uses the Any wildcard.
	fs := sp.Instantiate(min[0])
	if len(fs) != 1 || fs[0].R != vocab.Any || fs[0].O != vocab.Any {
		t.Errorf("instantiation = %v", fs)
	}
}

func TestUnsatisfiableWhere(t *testing.T) {
	_, sp := buildSpace(t, `SELECT FACT-SETS
WHERE $x instanceOf Park . $x hasLabel "nonexistent label"
SATISFYING $x doAt $x WITH SUPPORT = 0.2`)
	if len(sp.ValidBase) != 0 {
		t.Fatalf("|ValidBase| = %d, want 0", len(sp.ValidBase))
	}
	if min := sp.Minimal(); len(min) != 0 {
		t.Errorf("minimal over empty valid set = %d nodes", len(min))
	}
}

func TestVarKindConflict(t *testing.T) {
	s := ontology.NewSample()
	q := oassisql.MustParse(`SELECT FACT-SETS WHERE SATISFYING $x+ $x [] WITH SUPPORT = 0.1`)
	_, err := NewSpace(s.Voc, q, nil, nil)
	if err == nil {
		t.Fatal("variable used as element and relation accepted")
	}
}

func TestLeqWithMoreFacts(t *testing.T) {
	s, sp := buildSpace(t, figure3Query)
	sp.More = true
	a := node(s, sp, []string{"Biking"}, "Central Park")
	b := a.Clone()
	b.More = fact.Set{s.Fact("Falafel", "eatAt", "Maoz Veg")}
	if !sp.Leq(a, b) {
		t.Error("node without MORE facts should precede node with MORE facts")
	}
	if sp.Leq(b, a) {
		t.Error("MORE facts ignored by Leq")
	}
	c := a.Clone()
	c.More = fact.Set{s.Fact("Food", "eatAt", "Maoz Veg")}
	if !sp.Leq(c, b) {
		t.Error("generalized MORE fact should precede specialized one")
	}
}

// BenchmarkAssignmentKey measures Key() on lattice nodes shaped like the
// engine's pool entries (successor-generated, multi-value antichains). The
// engine calls Key() on every pool probe, classifier status check, and
// dedup, so this dominates bookkeeping cost at scale.
func BenchmarkAssignmentKey(b *testing.B) {
	s, sp := buildSpace(b, figure3Query)
	seedNode := node(s, sp, []string{"Biking", "Ball Game"}, "Central Park")
	nodes := append([]Assignment{seedNode}, sp.Successors(seedNode)...)
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += len(nodes[i%len(nodes)].Key())
	}
	_ = sink
}
