package crowd

import (
	"testing"

	"oassis/internal/fact"
	"oassis/internal/ontology"
)

// spamQuestions is a few single-fact questions over the sample ontology,
// plus their pairs.
func spamQuestions(s *ontology.Sample) []fact.Set {
	facts := []fact.Fact{
		s.Fact("Biking", "doAt", "Central Park"),
		s.Fact("Basketball", "doAt", "Central Park"),
		s.Fact("Feed a Monkey", "doAt", "Bronx Zoo"),
		s.Fact("Falafel", "eatAt", "Maoz Veg"),
		s.Fact("Pasta", "eatAt", "Pine"),
	}
	var qs []fact.Set
	for i, f := range facts {
		qs = append(qs, fact.Set{f})
		for _, g := range facts[i+1:] {
			qs = append(qs, fact.Set{f, g}.Canon())
		}
	}
	return qs
}

// TestSpammersAnswerOnTheScale: spammers answer on the five-level scale,
// the same way every time they are asked, never specialize and never
// prune; the random spammer uses more than one level.
func TestSpammersAnswerOnTheScale(t *testing.T) {
	s := ontology.NewSample()
	random := &RandomSpammer{Name: "r", Seed: 5}
	yes := &YesSpammer{Name: "y"}
	levels := map[float64]bool{}
	for _, q := range spamQuestions(s) {
		a := random.Concrete(q)
		if FiveLevel(a) != a || random.Concrete(q) != a {
			t.Errorf("random answer %v off the scale or not repeatable", a)
		}
		levels[a] = true
		if yes.Concrete(q) != 1 {
			t.Errorf("always-yes answered %v", yes.Concrete(q))
		}
	}
	if len(levels) < 2 {
		t.Errorf("random spammer used levels %v", levels)
	}
	for _, m := range []Member{random, yes} {
		if r := m.ChooseSpecialization(nil); !r.Declined {
			t.Errorf("%s did not decline a specialization", m.ID())
		}
		if _, ok := m.Irrelevant(nil); ok {
			t.Errorf("%s pruned", m.ID())
		}
	}
}

// TestNoisyShiftsOneStep: with P 0 a noisy member is the honest one; with
// P 1 every answer is exactly one scale step from the honest answer and
// stays on [0, 1].
func TestNoisyShiftsOneStep(t *testing.T) {
	s := ontology.NewSample()
	u1, _ := SampleDBs(s)
	honest := &SimMember{Name: "u1", DB: u1}
	for _, q := range spamQuestions(s) {
		want := honest.Concrete(q)
		if got := (&Noisy{Member: honest, P: 0, Seed: 1}).Concrete(q); got != want {
			t.Errorf("P 0: %v, honest %v", got, want)
		}
		got := (&Noisy{Member: honest, P: 1, Seed: 1}).Concrete(q)
		if d := got - want; !almost(d, step) && !almost(d, -step) || got < 0 || got > 1 {
			t.Errorf("P 1: %v from honest %v", got, want)
		}
	}
	if id := (&Noisy{Member: honest}).ID(); id != "u1" {
		t.Errorf("ID = %q, want the wrapped member's", id)
	}
}
