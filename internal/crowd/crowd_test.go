package crowd

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"oassis/internal/fact"
	"oassis/internal/ontology"
	"oassis/internal/vocab"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSupportExample27(t *testing.T) {
	// Example 2.7: supp_u1({Pasta eatAt Pine, Activity doAt Bronx Zoo}) = 1/3.
	s := ontology.NewSample()
	u1, u2 := SampleDBs(s)
	q := fact.Set{
		s.Fact("Pasta", "eatAt", "Pine"),
		s.Fact("Activity", "doAt", "Bronx Zoo"),
	}
	if got := u1.Support(q); !almost(got, 1.0/3) {
		t.Errorf("supp_u1 = %v, want 1/3", got)
	}
	if got := u2.Support(q); !almost(got, 0.5) {
		t.Errorf("supp_u2 = %v, want 1/2", got)
	}
}

func TestSupportExample31(t *testing.T) {
	// Example 3.1: φ16 (Biking doAt Central Park . Falafel eatAt Maoz Veg):
	// supports 1/3 and 1/2; φ20 (Baseball …): 1/6 and 1/2.
	s := ontology.NewSample()
	u1, u2 := SampleDBs(s)
	phi16 := fact.Set{
		s.Fact("Biking", "doAt", "Central Park"),
		s.Fact("Falafel", "eatAt", "Maoz Veg"),
	}
	phi20 := fact.Set{
		s.Fact("Baseball", "doAt", "Central Park"),
		s.Fact("Falafel", "eatAt", "Maoz Veg"),
	}
	if got := u1.Support(phi16); !almost(got, 1.0/3) {
		t.Errorf("supp_u1(φ16) = %v, want 1/3", got)
	}
	if got := u2.Support(phi16); !almost(got, 0.5) {
		t.Errorf("supp_u2(φ16) = %v, want 1/2", got)
	}
	if got := u1.Support(phi20); !almost(got, 1.0/6) {
		t.Errorf("supp_u1(φ20) = %v, want 1/6", got)
	}
	if got := u2.Support(phi20); !almost(got, 0.5) {
		t.Errorf("supp_u2(φ20) = %v, want 1/2", got)
	}
	// Example 3.2: φ16 + MORE fact Rent Bikes doAt Boathouse has average
	// support 5/12 over the two members: 1/3 and 1/2.
	ext := append(phi16.Clone(), s.Fact("Rent Bikes", "doAt", "Boathouse"))
	if got := (u1.Support(ext) + u2.Support(ext)) / 2; !almost(got, 5.0/12) {
		t.Errorf("avg supp(ext φ16) = %v, want 5/12", got)
	}
}

func TestSupportEdgeCases(t *testing.T) {
	s := ontology.NewSample()
	empty := NewPersonalDB(s.Voc)
	if empty.Support(fact.Set{s.Fact("Biking", "doAt", "Central Park")}) != 0 {
		t.Error("empty DB should give support 0")
	}
	if empty.Support(nil) != 1 {
		t.Error("empty fact-set should have support 1")
	}
	u1, _ := SampleDBs(s)
	if u1.Support(nil) != 1 {
		t.Error("empty fact-set support ≠ 1")
	}
	// Generalized query: Sport doAt Central Park implied by T1, T3, T4.
	if got := u1.Support(fact.Set{s.Fact("Sport", "doAt", "Central Park")}); !almost(got, 0.5) {
		t.Errorf("generalized support = %v, want 1/2", got)
	}
	// Wildcard: [] eatAt Pine.
	anyEat := fact.Set{{S: vocab.Any, R: s.T("eatAt"), O: s.T("Pine")}}
	if got := u1.Support(anyEat); !almost(got, 1.0/3) {
		t.Errorf("wildcard support = %v, want 1/3", got)
	}
}

func TestFiveLevelDiscretization(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {0.1, 0}, {0.13, 0.25}, {0.25, 0.25}, {0.374, 0.25},
		{0.4, 0.5}, {0.5, 0.5}, {0.7, 0.75}, {0.9, 1}, {1, 1},
	}
	for _, c := range cases {
		if got := FiveLevel(c.in); got != c.want {
			t.Errorf("FiveLevel(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if Exact(0.123) != 0.123 {
		t.Error("Exact changed the value")
	}
}

func TestSimMemberConcrete(t *testing.T) {
	s := ontology.NewSample()
	u1, _ := SampleDBs(s)
	m := &SimMember{Name: "u1", DB: u1} // default FiveLevel
	got := m.Concrete(fact.Set{s.Fact("Feed a Monkey", "doAt", "Bronx Zoo")})
	// True support 3/6 = 0.5 → "sometimes".
	if got != 0.5 {
		t.Errorf("Concrete = %v, want 0.5", got)
	}
	m.Disc = Exact
	if got := m.Concrete(fact.Set{s.Fact("Feed a Monkey", "doAt", "Bronx Zoo")}); !almost(got, 0.5) {
		t.Errorf("exact Concrete = %v", got)
	}
	if m.ID() != "u1" {
		t.Error("ID wrong")
	}
}

func TestSimMemberSpecialization(t *testing.T) {
	s := ontology.NewSample()
	u1, _ := SampleDBs(s)
	m := &SimMember{Name: "u1", DB: u1, SpecializeProb: 1, Theta: 0.3, Disc: Exact}
	candidates := []fact.Set{
		{s.Fact("Biking", "doAt", "Central Park")},     // 2/6
		{s.Fact("Feed a Monkey", "doAt", "Bronx Zoo")}, // 3/6
		{s.Fact("Basketball", "doAt", "Central Park")}, // 1/6
	}
	r := m.ChooseSpecialization(candidates)
	if r.Declined || !r.Chosen {
		t.Fatalf("chosen=%v declined=%v", r.Chosen, r.Declined)
	}
	if r.Choice != 1 || !almost(r.Support, 0.5) {
		t.Errorf("picked %d (%v), want 1 (0.5)", r.Choice, r.Support)
	}
	// All below theta → "none of these".
	m.Theta = 0.9
	r = m.ChooseSpecialization(candidates)
	if r.Chosen || r.Declined {
		t.Errorf("want none-of-these, got chosen=%v declined=%v", r.Chosen, r.Declined)
	}
	// SpecializeProb 0 → declines.
	m.SpecializeProb = 0
	if !m.ChooseSpecialization(candidates).Declined {
		t.Error("member should decline with SpecializeProb 0")
	}
	// Probabilistic path with RNG.
	m.SpecializeProb = 0.5
	m.Rng = rand.New(rand.NewSource(1))
	declinedCount := 0
	for i := 0; i < 200; i++ {
		if m.ChooseSpecialization(candidates).Declined {
			declinedCount++
		}
	}
	if declinedCount < 50 || declinedCount > 150 {
		t.Errorf("declines = %d/200, want ≈100", declinedCount)
	}
}

func TestSimMemberIrrelevant(t *testing.T) {
	s := ontology.NewSample()
	u1, _ := SampleDBs(s)
	m := &SimMember{Name: "u1", DB: u1, PruneProb: 1, Rng: rand.New(rand.NewSource(2))}
	// u1 never swims: Swimming should be prunable; Central Park is not.
	term, ok := m.Irrelevant([]vocab.Term{s.T("Central Park"), s.T("Swimming")})
	if !ok || term != s.T("Swimming") {
		t.Errorf("Irrelevant = %v, %v", term, ok)
	}
	if _, ok := m.Irrelevant([]vocab.Term{s.T("Central Park"), s.T("Biking")}); ok {
		t.Error("relevant terms marked irrelevant")
	}
	m.PruneProb = 0
	if _, ok := m.Irrelevant([]vocab.Term{s.T("Swimming")}); ok {
		t.Error("pruned with PruneProb 0")
	}
}

func TestContainsTerm(t *testing.T) {
	s := ontology.NewSample()
	u1, _ := SampleDBs(s)
	// u1's history mentions Biking, and hence also its generalization Sport.
	if !u1.ContainsTerm(s.T("Biking")) || !u1.ContainsTerm(s.T("Sport")) {
		t.Error("ContainsTerm misses present terms")
	}
	if u1.ContainsTerm(s.T("Swimming")) || u1.ContainsTerm(s.T("Madison Square")) {
		t.Error("ContainsTerm reports absent terms")
	}
}

func TestQuestionRendering(t *testing.T) {
	s := ontology.NewSample()
	tpl := NewTemplates(s.Voc)
	fs := fact.Set{
		s.Fact("Biking", "doAt", "Central Park"),
		s.Fact("Falafel", "eatAt", "Maoz Veg"),
	}.Canon()
	q := tpl.Concrete(fs)
	if !strings.Contains(q, "How often do you") ||
		!strings.Contains(q, "do Biking at Central Park") ||
		!strings.Contains(q, "eat Falafel at Maoz Veg") ||
		!strings.Contains(q, "and also") {
		t.Errorf("Concrete = %q", q)
	}
	sp := tpl.Specialization(fs)
	if !strings.Contains(sp, "Can you specify") {
		t.Errorf("Specialization = %q", sp)
	}
	// Generic relation and wildcard rendering.
	g := tpl.Phrase(fact.Fact{S: vocab.Any, R: s.T("inside"), O: s.T("NYC")})
	if !strings.Contains(g, "anything inside NYC") {
		t.Errorf("generic phrase = %q", g)
	}
}

func TestSampleDBShapes(t *testing.T) {
	s := ontology.NewSample()
	u1, u2 := SampleDBs(s)
	if u1.Len() != 6 || u2.Len() != 2 {
		t.Fatalf("|D_u1| = %d, |D_u2| = %d", u1.Len(), u2.Len())
	}
	if len(u1.Transactions[3]) != 4 {
		t.Errorf("T4 has %d facts, want 4", len(u1.Transactions[3]))
	}
}
