package vocab

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// buildSample builds the activity fragment of the paper's Figure 1 ontology:
//
//	Activity ≤ Sport ≤ {Biking, Ball Game, Water Sport}
//	Ball Game ≤ {Basketball, Baseball, Water Polo}
//	Water Sport ≤ {Swimming, Water Polo}
func buildSample(t *testing.T) (*Vocabulary, map[string]Term) {
	t.Helper()
	v, terms := buildSampleUnfrozen()
	if err := v.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	return v, terms
}

// buildSampleUnfrozen builds buildSample's vocabulary without freezing it.
func buildSampleUnfrozen() (*Vocabulary, map[string]Term) {
	v := New()
	names := []string{
		"Activity", "Sport", "Biking", "Ball Game", "Water Sport",
		"Basketball", "Baseball", "Water Polo", "Swimming",
	}
	terms := make(map[string]Term)
	for _, n := range names {
		terms[n] = v.MustAddElement(n)
	}
	edges := [][2]string{
		{"Activity", "Sport"},
		{"Sport", "Biking"}, {"Sport", "Ball Game"}, {"Sport", "Water Sport"},
		{"Ball Game", "Basketball"}, {"Ball Game", "Baseball"}, {"Ball Game", "Water Polo"},
		{"Water Sport", "Swimming"}, {"Water Sport", "Water Polo"},
	}
	for _, e := range edges {
		v.MustAddOrder(terms[e[0]], terms[e[1]])
	}
	return v, terms
}

func TestAddAndLookup(t *testing.T) {
	v := New()
	a := v.MustAddElement("Place")
	r := v.MustAddRelation("inside")
	if got, ok := v.Lookup("Place"); !ok || got != a {
		t.Fatalf("Lookup(Place) = %v, %v", got, ok)
	}
	if got, ok := v.Lookup("inside"); !ok || got != r {
		t.Fatalf("Lookup(inside) = %v, %v", got, ok)
	}
	if _, ok := v.Lookup("nope"); ok {
		t.Fatal("Lookup(nope) succeeded")
	}
	if v.Name(a) != "Place" || v.KindOf(a) != Element || v.KindOf(r) != Relation {
		t.Fatal("metadata mismatch")
	}
	// Idempotent re-add.
	if again := v.MustAddElement("Place"); again != a {
		t.Fatalf("re-add returned %v, want %v", again, a)
	}
	// Kind conflict.
	if _, err := v.AddRelation("Place"); err == nil {
		t.Fatal("AddRelation(Place) should conflict with element")
	}
	if _, err := v.AddElement(""); err == nil {
		t.Fatal("empty name accepted")
	}
	if v.Len() != 2 || v.CountKind(Element) != 1 || v.CountKind(Relation) != 1 {
		t.Fatalf("Len=%d elements=%d relations=%d", v.Len(), v.CountKind(Element), v.CountKind(Relation))
	}
}

func TestOrderEdgesRejectMismatch(t *testing.T) {
	v := New()
	e := v.MustAddElement("Place")
	r := v.MustAddRelation("inside")
	if err := v.AddOrder(e, r); err == nil {
		t.Fatal("cross-kind edge accepted")
	}
	if err := v.AddOrder(e, e); err == nil {
		t.Fatal("self edge accepted")
	}
	if err := v.AddOrder(e, Term(99)); err == nil {
		t.Fatal("unknown term accepted")
	}
	// Duplicate edge is a no-op.
	e2 := v.MustAddElement("NYC")
	v.MustAddOrder(e, e2)
	v.MustAddOrder(e, e2)
	if len(v.Children(e)) != 1 || len(v.Parents(e2)) != 1 {
		t.Fatal("duplicate edge not deduplicated")
	}
}

func TestLeq(t *testing.T) {
	v, m := buildSample(t)
	cases := []struct {
		a, b string
		want bool
	}{
		{"Activity", "Activity", true},
		{"Activity", "Biking", true},
		{"Sport", "Biking", true},
		{"Sport", "Basketball", true},
		{"Activity", "Water Polo", true},
		{"Ball Game", "Water Polo", true},
		{"Water Sport", "Water Polo", true},
		{"Biking", "Sport", false},
		{"Biking", "Basketball", false},
		{"Basketball", "Baseball", false},
	}
	for _, c := range cases {
		if got := v.Leq(m[c.a], m[c.b]); got != c.want {
			t.Errorf("Leq(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if v.Leq(None, m["Sport"]) || v.Leq(m["Sport"], None) {
		t.Error("Leq with None should be false")
	}
}

func TestLtAndComparable(t *testing.T) {
	v, m := buildSample(t)
	if !v.Lt(m["Sport"], m["Biking"]) {
		t.Error("Sport < Biking expected")
	}
	if v.Lt(m["Sport"], m["Sport"]) {
		t.Error("Sport < Sport unexpected")
	}
	if !v.Comparable(m["Biking"], m["Sport"]) {
		t.Error("Biking and Sport should be comparable")
	}
	if v.Comparable(m["Biking"], m["Basketball"]) {
		t.Error("Biking and Basketball should be incomparable")
	}
}

func TestAncestorsDescendants(t *testing.T) {
	v, m := buildSample(t)
	anc := v.Ancestors(m["Water Polo"])
	want := map[Term]bool{m["Activity"]: true, m["Sport"]: true, m["Ball Game"]: true, m["Water Sport"]: true}
	if len(anc) != len(want) {
		t.Fatalf("Ancestors(Water Polo) = %v, want 4 terms", v.Names(anc))
	}
	for _, a := range anc {
		if !want[a] {
			t.Errorf("unexpected ancestor %s", v.Name(a))
		}
	}
	desc := v.Descendants(m["Ball Game"])
	if len(desc) != 3 {
		t.Fatalf("Descendants(Ball Game) = %v", v.Names(desc))
	}
	all := v.Descendants(m["Activity"])
	if len(all) != v.Len()-1 {
		t.Fatalf("Descendants(Activity) = %d terms, want %d", len(all), v.Len()-1)
	}
}

// TestAncestorsOutsideVocabulary: terms outside the vocabulary — the
// wildcard, None, or an index past Len — have no ancestors and no
// descendants, frozen or not, instead of indexing out of range.
func TestAncestorsOutsideVocabulary(t *testing.T) {
	for _, frozen := range []bool{false, true} {
		v, _ := buildSampleUnfrozen()
		if frozen {
			if err := v.Freeze(); err != nil {
				t.Fatal(err)
			}
		}
		for _, term := range []Term{Any, None, Term(v.Len()), Term(v.Len() + 64)} {
			if got := v.Ancestors(term); len(got) != 0 {
				t.Errorf("frozen=%v: Ancestors(%d) = %v, want none", frozen, term, got)
			}
			if got := v.Descendants(term); len(got) != 0 {
				t.Errorf("frozen=%v: Descendants(%d) = %v, want none", frozen, term, got)
			}
			if got := v.AppendAncestorsOrSelf(nil, term); len(got) != 0 {
				t.Errorf("frozen=%v: AppendAncestorsOrSelf(%d) = %v, want none", frozen, term, got)
			}
		}
	}
}

// TestAncestorsFrozenMatchesUnfrozen: the frozen bit-row decode lists the
// same ascending ancestors as the unfrozen graph walk, and
// AppendAncestorsOrSelf adds exactly the term itself, in order, after
// whatever dst already holds.
func TestAncestorsFrozenMatchesUnfrozen(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		seed := r.Int63()
		live := randomDAGUnfrozen(rand.New(rand.NewSource(seed)), 5, 8)
		frozen := randomDAGUnfrozen(rand.New(rand.NewSource(seed)), 5, 8)
		if err := frozen.Freeze(); err != nil {
			t.Fatal(err)
		}
		for x := Term(0); int(x) < live.Len(); x++ {
			want := live.Ancestors(x)
			if !slices.IsSorted(want) {
				t.Fatalf("unfrozen Ancestors(%d) = %v, not ascending", x, want)
			}
			if got := frozen.Ancestors(x); !slices.Equal(got, want) {
				t.Fatalf("Ancestors(%d): frozen %v, unfrozen %v", x, got, want)
			}
			self := append(slices.Clone(want), x)
			slices.Sort(self)
			for _, voc := range []*Vocabulary{live, frozen} {
				got := voc.AppendAncestorsOrSelf([]Term{None}, x)
				if got[0] != None || !slices.Equal(got[1:], self) {
					t.Fatalf("frozen=%v: AppendAncestorsOrSelf(%d) = %v, want [-1 %v]",
						voc.Frozen(), x, got, self)
				}
			}
		}
	}
}

func TestDepthAndRoots(t *testing.T) {
	v, m := buildSample(t)
	if d := v.Depth(m["Activity"]); d != 0 {
		t.Errorf("Depth(Activity) = %d", d)
	}
	if d := v.Depth(m["Water Polo"]); d != 3 {
		t.Errorf("Depth(Water Polo) = %d, want 3", d)
	}
	roots := v.Roots(Element)
	if len(roots) != 1 || roots[0] != m["Activity"] {
		t.Errorf("Roots = %v", v.Names(roots))
	}
}

func TestCycleDetection(t *testing.T) {
	v := New()
	a := v.MustAddElement("a")
	b := v.MustAddElement("b")
	c := v.MustAddElement("c")
	v.MustAddOrder(a, b)
	v.MustAddOrder(b, c)
	v.MustAddOrder(c, a)
	if err := v.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
	if err := v.Freeze(); err == nil {
		t.Fatal("Freeze accepted cyclic vocabulary")
	}
}

func TestFreezeMakesImmutable(t *testing.T) {
	v := New()
	v.MustAddElement("a")
	if err := v.Freeze(); err != nil {
		t.Fatal(err)
	}
	if !v.Frozen() {
		t.Fatal("Frozen() = false after Freeze")
	}
	if _, err := v.AddElement("b"); err == nil {
		t.Fatal("AddElement accepted after Freeze")
	}
	if err := v.Freeze(); err != nil {
		t.Fatalf("second Freeze: %v", err)
	}
}

func TestAntichain(t *testing.T) {
	v, m := buildSample(t)
	if !v.IsAntichain([]Term{m["Biking"], m["Basketball"]}) {
		t.Error("Biking,Basketball should be an antichain")
	}
	if v.IsAntichain([]Term{m["Sport"], m["Basketball"]}) {
		t.Error("Sport,Basketball should not be an antichain")
	}
	prefix := []Term{m["Sport"]}
	out := v.AppendReduceAntichain(prefix, []Term{m["Sport"], m["Basketball"], m["Biking"], m["Basketball"]})
	if len(out) != 3 || out[0] != m["Sport"] {
		t.Fatalf("AppendReduceAntichain = %v, want the prefix Sport kept", v.Names(out))
	}
	got := out[1:]
	seen := map[Term]bool{}
	for _, g := range got {
		seen[g] = true
	}
	if !seen[m["Basketball"]] || !seen[m["Biking"]] {
		t.Errorf("AppendReduceAntichain = %v, want Basketball+Biking", v.Names(got))
	}
	if !v.IsAntichain(got) {
		t.Error("reduced set is not an antichain")
	}
}

func TestConcurrentLeq(t *testing.T) {
	v, m := buildSample(t)
	done := make(chan bool)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				_ = v.Leq(m["Sport"], m["Water Polo"])
				_ = v.Leq(m["Biking"], m["Basketball"])
			}
			done <- true
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}

// randomDAG builds a random layered DAG for property tests.
func randomDAG(r *rand.Rand, layers, perLayer int) *Vocabulary {
	v := randomDAGUnfrozen(r, layers, perLayer)
	if err := v.Freeze(); err != nil {
		panic(err)
	}
	return v
}

// randomDAGUnfrozen builds randomDAG's vocabulary without freezing it.
func randomDAGUnfrozen(r *rand.Rand, layers, perLayer int) *Vocabulary {
	v := New()
	var prev []Term
	for l := 0; l < layers; l++ {
		var cur []Term
		for i := 0; i < perLayer; i++ {
			t := v.MustAddElement(string(rune('a'+l)) + string(rune('0'+i%10)) + string(rune('A'+i/10)))
			cur = append(cur, t)
			for _, p := range prev {
				if r.Intn(3) == 0 {
					v.MustAddOrder(p, t)
				}
			}
		}
		prev = cur
	}
	return v
}

// Property: Leq is reflexive, antisymmetric and transitive on random DAGs.
func TestLeqIsPartialOrderProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		v := randomDAG(r, 4, 6)
		n := v.Len()
		pick := func() Term { return Term(r.Intn(n)) }
		check := func() bool {
			a, b, c := pick(), pick(), pick()
			if !v.Leq(a, a) {
				return false
			}
			if v.Leq(a, b) && v.Leq(b, a) && a != b {
				return false
			}
			if v.Leq(a, b) && v.Leq(b, c) && !v.Leq(a, c) {
				return false
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 300, Rand: r}); err != nil {
			t.Fatal(err)
		}
	}
}

// Property: AppendReduceAntichain keeps dst, and its appended output is
// always an ascending antichain and every dropped term is ≤ some kept term.
func TestReduceAntichainProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	v := randomDAG(r, 5, 5)
	n := v.Len()
	check := func() bool {
		in := make([]Term, r.Intn(6)+1)
		for i := range in {
			in[i] = Term(r.Intn(n))
		}
		dst := v.AppendReduceAntichain([]Term{None}, in)
		out := dst[1:]
		if dst[0] != None || !slices.IsSorted(out) || !v.IsAntichain(out) {
			return false
		}
		for _, a := range in {
			covered := false
			for _, b := range out {
				if v.Leq(a, b) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLeqWarm(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	v := randomDAG(r, 7, 40)
	n := v.Len()
	// Warm the memo.
	for t := 0; t < n; t++ {
		v.Leq(0, Term(t))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Leq(Term(i%n), Term((i*7)%n))
	}
}

// BenchmarkLeqFrozen measures the frozen-vocabulary Leq fast path: the
// engine's classifier performs O(|anchors|) such point queries per status
// check, so this is the innermost hot spot of every mining run.
func BenchmarkLeqFrozen(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	v := randomDAG(r, 7, 40)
	if err := v.Freeze(); err != nil {
		b.Fatal(err)
	}
	n := v.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Leq(Term(i%n), Term((i*7)%n))
	}
}

func TestLeqBeforeFreezeSeesNewEdges(t *testing.T) {
	// Leq must not cache stale results while the vocabulary is still being
	// built (regression: pre-freeze memoization went stale and could index
	// out of range after new terms were added).
	v := New()
	a := v.MustAddElement("a")
	b := v.MustAddElement("b")
	if v.Leq(a, b) {
		t.Fatal("unrelated terms comparable")
	}
	v.MustAddOrder(a, b)
	if !v.Leq(a, b) {
		t.Fatal("edge added after a Leq query not visible")
	}
	c := v.MustAddElement("c")
	v.MustAddOrder(b, c)
	if !v.Leq(a, c) {
		t.Fatal("transitive edge over late term not visible")
	}
	if err := v.Freeze(); err != nil {
		t.Fatal(err)
	}
	if !v.Leq(a, c) || v.Leq(c, a) {
		t.Fatal("order wrong after freeze")
	}
}
