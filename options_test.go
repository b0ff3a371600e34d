package oassis

import (
	"strings"
	"testing"
)

// customMember implements Member directly (exercising the adapter paths a
// downstream user would hit): it reports every combination involving
// "Biking" as very frequent, everything else never, answers specialization
// questions by picking the first biking candidate, and prunes "Swimming".
type customMember struct{ id string }

func (m *customMember) ID() string { return m.id }

func (m *customMember) HowOften(facts []Triple) float64 {
	for _, f := range facts {
		if f.Subject == "Swimming" || f.Object == "Swimming" {
			return 0
		}
	}
	for _, f := range facts {
		if f.Subject == "Biking" {
			return 1
		}
		if f.Subject != "Biking" && f.Relation == "doAt" && f.Subject != "Sport" &&
			f.Subject != "Activity" && f.Subject != "Ball Game" && f.Subject != "Water Sport" &&
			f.Subject != "Food" && f.Subject != "Feed a Monkey" {
			return 0
		}
	}
	// Generalizations of biking (Sport doAt …, Activity doAt …) count too.
	for _, f := range facts {
		if f.Subject == "Sport" || f.Subject == "Activity" {
			return 1
		}
	}
	return 0
}

func (m *customMember) Specialize(candidates [][]Triple) SpecializeResponse {
	for i, c := range candidates {
		if m.HowOften(c) >= 1 {
			return Choose(i, 1)
		}
	}
	return NoneOfThese()
}

func (m *customMember) Irrelevant(terms []string) (string, bool) {
	for _, t := range terms {
		if t == "Swimming" {
			return t, true
		}
	}
	return "", false
}

const restrictedQuery = `
SELECT FACT-SETS
WHERE
  $w subClassOf* Attraction.
  $x instanceOf $w.
  $x inside NYC.
  $x hasLabel "child-friendly".
  $y subClassOf* Activity
SATISFYING
  $y doAt $x
WITH SUPPORT = 0.5
`

func TestCustomMemberThroughAdapter(t *testing.T) {
	db := SampleDB()
	q, err := ParseQuery(restrictedQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exec(db, q, []Member{&customMember{id: "c"}},
		WithSpecializationRatio(0.5),
		WithPruning(),
		WithSeed(42),
	)
	if err != nil {
		t.Fatal(err)
	}
	joined := ""
	for _, m := range res.MSPs {
		joined += m.Text + ";"
	}
	if !strings.Contains(joined, "Biking doAt") {
		t.Errorf("biking MSP not found: %q", joined)
	}
}

func TestOptionCaps(t *testing.T) {
	db := SampleDB()
	q, err := ParseQuery(restrictedQuery)
	if err != nil {
		t.Fatal(err)
	}
	members := table3Members(t, db)
	res, err := Exec(db, q, members,
		WithAnswersPerQuestion(2),
		WithMaxQuestions(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalQuestions > 4 {
		t.Errorf("MaxQuestions exceeded: %d", res.Stats.TotalQuestions)
	}
	res2, err := Exec(db, q, members,
		WithAnswersPerQuestion(2),
		WithMaxQuestionsPerMember(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.TotalQuestions > 4 {
		t.Errorf("per-member budget exceeded: %d", res2.Stats.TotalQuestions)
	}
}

func TestTopKOption(t *testing.T) {
	db := SampleDB()
	q, err := ParseQuery(restrictedQuery)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Exec(db, q, table3Members(t, db), WithAnswersPerQuestion(2))
	if err != nil {
		t.Fatal(err)
	}
	topk, err := Exec(db, q, table3Members(t, db),
		WithAnswersPerQuestion(2), WithTopK(1))
	if err != nil {
		t.Fatal(err)
	}
	if topk.Stats.TotalQuestions >= full.Stats.TotalQuestions {
		t.Errorf("top-1 (%d questions) not cheaper than full (%d)",
			topk.Stats.TotalQuestions, full.Stats.TotalQuestions)
	}
}

func TestSpamFilterOption(t *testing.T) {
	db := SampleDB()
	q, err := ParseQuery(restrictedQuery)
	if err != nil {
		t.Fatal(err)
	}
	// A member whose answers alternate between never and always, whatever
	// the question, answering before the two honest members.
	inv := &invertedMember{}
	members := []Member{inv}
	for _, m := range table3Members(t, db) {
		members = append(members, &askCounter{Member: m})
	}
	res, err := Exec(db, q, members,
		WithAnswersPerQuestion(3),
		WithSpamFilter(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BannedMembers != 1 {
		t.Fatalf("BannedMembers = %d, want 1 (the inverted member)", res.Stats.BannedMembers)
	}
	// Banned members are asked nothing more: the one ban must have cut
	// the inverted member short of both honest members.
	for _, m := range members[1:] {
		if h := m.(*askCounter); inv.n >= h.n {
			t.Errorf("inverted member asked %d questions, honest %s %d: an honest member was banned",
				inv.n, h.ID(), h.n)
		}
	}
	plain, err := Exec(db, q, []Member{&invertedMember{}, members[1], members[2]},
		WithAnswersPerQuestion(3))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.BannedMembers != 0 {
		t.Errorf("BannedMembers = %d without the filter", plain.Stats.BannedMembers)
	}
}

// askCounter counts the concrete questions its member is asked.
type askCounter struct {
	Member
	n int
}

func (m *askCounter) HowOften(facts []Triple) float64 {
	m.n++
	return m.Member.HowOften(facts)
}

type invertedMember struct{ n int }

func (m *invertedMember) ID() string { return "inverted" }
func (m *invertedMember) HowOften(facts []Triple) float64 {
	m.n++
	if m.n%2 == 0 {
		return 1
	}
	return 0
}
func (m *invertedMember) Specialize([][]Triple) SpecializeResponse {
	return DeclineSpecialization()
}
func (m *invertedMember) Irrelevant([]string) (string, bool) { return "", false }

func TestQueryAccessors(t *testing.T) {
	q, err := ParseQuery(restrictedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if q.Support() != 0.5 {
		t.Errorf("Support = %v", q.Support())
	}
	if !strings.Contains(q.String(), "SELECT FACT-SETS") {
		t.Errorf("String = %q", q.String())
	}
}

func TestAddRelationAndOrder(t *testing.T) {
	db := NewDB()
	if err := db.AddRelation("locatedIn"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation("cityOf"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelationOrder("locatedIn", "cityOf"); err != nil {
		t.Fatal(err)
	}
	// Order edge between unknown-kind names errors.
	if err := db.AddTerm("Paris"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelationOrder("Paris", "cityOf"); err == nil {
		t.Error("element accepted as relation in order")
	}
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
}
