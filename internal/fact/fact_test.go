package fact

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"oassis/internal/vocab"
)

// testVocab builds the fragment of Figure 1 used by the paper's running
// example, including the relation order nearBy ≤ inside.
func testVocab(t testing.TB) (*vocab.Vocabulary, map[string]vocab.Term) {
	t.Helper()
	v := vocab.New()
	m := make(map[string]vocab.Term)
	for _, n := range []string{
		"Activity", "Sport", "Biking", "Ball Game", "Basketball", "Baseball",
		"Place", "City", "NYC", "Park", "Central Park",
		"Food", "Falafel", "Maoz Veg", "Rent Bikes", "Boathouse",
	} {
		m[n] = v.MustAddElement(n)
	}
	for _, n := range []string{"doAt", "eatAt", "inside", "nearBy"} {
		m[n] = v.MustAddRelation(n)
	}
	order := [][2]string{
		{"Activity", "Sport"}, {"Sport", "Biking"}, {"Sport", "Ball Game"},
		{"Ball Game", "Basketball"}, {"Ball Game", "Baseball"},
		{"Place", "City"}, {"City", "NYC"},
		{"Place", "Park"}, {"Park", "Central Park"},
		{"Food", "Falafel"},
		// nearBy ≤ inside: inside is the more specific relation.
		{"nearBy", "inside"},
	}
	for _, e := range order {
		v.MustAddOrder(m[e[0]], m[e[1]])
	}
	if err := v.Freeze(); err != nil {
		t.Fatal(err)
	}
	return v, m
}

func TestFactLeqExample26(t *testing.T) {
	// Reproduces Example 2.6 of the paper.
	v, m := testVocab(t)
	f1 := Fact{m["Sport"], m["doAt"], m["Central Park"]}
	f2 := Fact{m["Biking"], m["doAt"], m["Central Park"]}
	f3 := Fact{m["Central Park"], m["inside"], m["NYC"]}
	f4 := Fact{m["Central Park"], m["nearBy"], m["NYC"]}
	if !Leq(v, f1, f2) {
		t.Error("f1 ≤ f2 expected (Sport ≤ Biking)")
	}
	if !Leq(v, f4, f3) {
		t.Error("f4 ≤ f3 expected (nearBy ≤ inside)")
	}
	if Leq(v, f3, f4) {
		t.Error("f3 ≤ f4 unexpected")
	}
	if !Leq(v, f1, f1) {
		t.Error("Leq not reflexive")
	}
	if Leq(v, f2, f1) {
		t.Error("f2 ≤ f1 unexpected")
	}
	if Leq(v, f1, f3) || Leq(v, f3, f1) {
		t.Error("f1 and f3 should be incomparable")
	}
}

func TestSetLeqAndImplies(t *testing.T) {
	v, m := testVocab(t)
	// T1 from Table 3.
	t1 := Set{
		{m["Basketball"], m["doAt"], m["Central Park"]},
		{m["Falafel"], m["eatAt"], m["Maoz Veg"]},
	}
	sportAtPark := Set{{m["Sport"], m["doAt"], m["Central Park"]}}
	if !SetLeq(v, sportAtPark, t1) {
		t.Error("Sport doAt Central Park should be implied by T1")
	}
	if !Implies(v, t1, sportAtPark) {
		t.Error("Implies should agree with SetLeq")
	}
	both := Set{
		{m["Activity"], m["doAt"], m["Central Park"]},
		{m["Food"], m["eatAt"], m["Maoz Veg"]},
	}
	if !SetLeq(v, both, t1) {
		t.Error("generalized pair should be implied by T1")
	}
	biking := Set{{m["Biking"], m["doAt"], m["Central Park"]}}
	if SetLeq(v, biking, t1) {
		t.Error("Biking doAt Central Park is not implied by T1")
	}
	if !SetLeq(v, nil, t1) {
		t.Error("empty set is implied by everything")
	}
}

func TestCanonAndEqual(t *testing.T) {
	v, m := testVocab(t)
	_ = v
	a := Fact{m["Biking"], m["doAt"], m["Central Park"]}
	b := Fact{m["Falafel"], m["eatAt"], m["Maoz Veg"]}
	s := Set{b, a, b, a}
	c := s.Canon()
	if len(c) != 2 {
		t.Fatalf("Canon len = %d, want 2", len(c))
	}
	if !c[0].Less(c[1]) {
		t.Error("Canon not sorted")
	}
	if !s.Equal(Set{a, b}) {
		t.Error("Equal failed on permuted duplicate set")
	}
	if s.Equal(Set{a}) {
		t.Error("Equal true on different sets")
	}
	if len(s) != 4 {
		t.Error("Canon modified receiver")
	}
	if !(Set{a, b}).Contains(a) || (Set{b}).Contains(a) {
		t.Error("Contains wrong")
	}
}

func TestReduce(t *testing.T) {
	v, m := testVocab(t)
	s := Set{
		{m["Sport"], m["doAt"], m["Central Park"]},
		{m["Biking"], m["doAt"], m["Central Park"]},
		{m["Falafel"], m["eatAt"], m["Maoz Veg"]},
	}
	r := Reduce(v, s)
	if len(r) != 2 {
		t.Fatalf("Reduce = %v", r.Format(v))
	}
	if !r.Contains(Fact{m["Biking"], m["doAt"], m["Central Park"]}) {
		t.Error("Reduce dropped the specific fact")
	}
	if r.Contains(Fact{m["Sport"], m["doAt"], m["Central Park"]}) {
		t.Error("Reduce kept the implied general fact")
	}
	// Equal duplicate facts must not annihilate each other.
	dup := Set{
		{m["Biking"], m["doAt"], m["Central Park"]},
		{m["Biking"], m["doAt"], m["Central Park"]},
	}
	if got := Reduce(v, dup); len(got) != 1 {
		t.Errorf("Reduce(dup) = %d facts, want 1", len(got))
	}
}

func TestKey(t *testing.T) {
	v, m := testVocab(t)
	_ = v
	a := Fact{m["Biking"], m["doAt"], m["Central Park"]}
	b := Fact{m["Falafel"], m["eatAt"], m["Maoz Veg"]}
	if (Set{a, b}).Key() != (Set{b, a}).Key() {
		t.Error("Key not order-independent")
	}
	if (Set{a}).Key() == (Set{b}).Key() {
		t.Error("Key collision on different sets")
	}
	if (Set{a, a}).Key() != (Set{a}).Key() {
		t.Error("Key not duplicate-invariant")
	}
}

// TestKeyCanonFastPath: Key, AppendKey and Hash read an already canonical
// set in place and canonicalize any other; on random sets, canonical or
// not, the key is the little-endian (S, R, O) encoding of Canon, as it was
// when Key always canonicalized, and equal sets hash equal.
func TestKeyCanonFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		s := make(Set, rng.Intn(6))
		for i := range s {
			s[i] = Fact{vocab.Term(rng.Intn(4)), vocab.Term(rng.Intn(2)), vocab.Term(rng.Intn(4))}
		}
		c := s.Canon()
		var want []byte
		for _, f := range c {
			for _, t := range []vocab.Term{f.S, f.R, f.O} {
				want = append(want, byte(t), byte(t>>8), byte(t>>16), byte(t>>24))
			}
		}
		if !c.IsCanon() {
			t.Fatalf("Canon(%v) = %v is not canonical", s, c)
		}
		for _, in := range []Set{s, c} {
			if got := in.Key(); got != string(want) {
				t.Fatalf("Key(%v) = %x, want %x", in, got, want)
			}
			if got := in.AppendKey([]byte("x")); string(got) != "x"+string(want) {
				t.Fatalf("AppendKey(%v) = %x, want x+%x", in, got, want)
			}
			if in.Hash() != c.Hash() {
				t.Fatalf("Hash(%v) differs from Hash of its canonical form", in)
			}
		}
	}
	if (Set{{1, 1, 1}, {1, 1, 1}}).IsCanon() || (Set{{2, 1, 1}, {1, 1, 1}}).IsCanon() {
		t.Error("IsCanon accepts a duplicate or an unsorted pair")
	}
}

func TestFormatAndParseRoundTrip(t *testing.T) {
	v, m := testVocab(t)
	s := Set{
		{m["Basketball"], m["doAt"], m["Central Park"]},
		{m["Falafel"], m["eatAt"], m["Maoz Veg"]},
	}.Canon()
	text := s.Format(v)
	if !strings.Contains(text, "Basketball doAt Central Park") {
		t.Fatalf("Format = %q", text)
	}
	back, err := Parse(v, text)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(s) {
		t.Fatalf("round trip: got %q", back.Format(v))
	}
}

func TestParseTable3(t *testing.T) {
	v, _ := testVocab(t)
	// T4 from Table 3 (multi-word names on both sides).
	s, err := Parse(v, "Baseball doAt Central Park. Biking doAt Central Park. "+
		"Rent Bikes doAt Boathouse. Falafel eatAt Maoz Veg")
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 4 {
		t.Fatalf("parsed %d facts, want 4: %s", len(s), s.Format(v))
	}
}

func TestParseErrors(t *testing.T) {
	v, _ := testVocab(t)
	if _, err := Parse(v, "Nonexistent doAt Central Park"); err == nil {
		t.Error("unknown subject accepted")
	}
	if _, err := Parse(v, "Biking"); err == nil {
		t.Error("short fact accepted")
	}
	if _, err := Parse(v, "Biking doAt doAt"); err == nil {
		t.Error("relation as object accepted")
	}
	if s, err := Parse(v, "  "); err != nil || len(s) != 0 {
		t.Error("blank input should parse to empty set")
	}
}

// Property: SetLeq is reflexive and transitive; Reduce preserves ≤-equivalence.
func TestSetOrderProperties(t *testing.T) {
	v, m := testVocab(t)
	terms := []vocab.Term{m["Activity"], m["Sport"], m["Biking"], m["Ball Game"], m["Basketball"]}
	rels := []vocab.Term{m["doAt"], m["eatAt"]}
	places := []vocab.Term{m["Central Park"], m["NYC"], m["Maoz Veg"]}
	r := rand.New(rand.NewSource(5))
	randSet := func() Set {
		n := r.Intn(4)
		s := make(Set, n)
		for i := range s {
			s[i] = Fact{terms[r.Intn(len(terms))], rels[r.Intn(len(rels))], places[r.Intn(len(places))]}
		}
		return s
	}
	check := func() bool {
		a, b, c := randSet(), randSet(), randSet()
		if !SetLeq(v, a, a) {
			return false
		}
		if SetLeq(v, a, b) && SetLeq(v, b, c) && !SetLeq(v, a, c) {
			return false
		}
		ra := Reduce(v, a)
		return SetLeq(v, ra, a) && SetLeq(v, a, ra)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSetLeq(b *testing.B) {
	v, m := testVocab(b)
	t1 := Set{
		{m["Basketball"], m["doAt"], m["Central Park"]},
		{m["Falafel"], m["eatAt"], m["Maoz Veg"]},
		{m["Biking"], m["doAt"], m["Central Park"]},
	}
	q := Set{
		{m["Sport"], m["doAt"], m["Central Park"]},
		{m["Food"], m["eatAt"], m["Maoz Veg"]},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SetLeq(v, q, t1)
	}
}
