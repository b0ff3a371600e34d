package core

import (
	"math/rand"
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/crowd"
	"oassis/internal/fact"
	"oassis/internal/vocab"
)

func TestTopKEarlyStop(t *testing.T) {
	s, q, sp := buildSpace(t, figure3Restricted)
	full := Run(Config{
		Space:   sp,
		Theta:   q.Support,
		Members: sampleMembers(s),
		Agg:     aggregate.NewFixedSample(2),
	})
	if len(full.MSPs) < 2 {
		t.Skip("need at least 2 MSPs for the top-k test")
	}
	_, _, sp2 := buildSpace(t, figure3Restricted)
	topk := Run(Config{
		Space:   sp2,
		Theta:   q.Support,
		Members: sampleMembers(s),
		Agg:     aggregate.NewFixedSample(2),
		MaxMSPs: 1,
	})
	if topk.Stats.TotalQuestions >= full.Stats.TotalQuestions {
		t.Errorf("top-1 used %d questions, full run %d",
			topk.Stats.TotalQuestions, full.Stats.TotalQuestions)
	}
	// Every early answer must be one of the full run's MSPs... at least one
	// confirmed MSP must exist among the anchors and be a true MSP.
	fullKeys := map[string]bool{}
	for _, m := range full.MSPs {
		fullKeys[m.Key()] = true
	}
	confirmed := 0
	for _, m := range topk.MSPs {
		if fullKeys[m.Key()] {
			confirmed++
		}
	}
	if confirmed == 0 {
		t.Error("top-k run confirmed no true MSP")
	}
}

// spammer answers randomly, violating support monotonicity. Unlike
// crowd.RandomSpammer its answers are off the five-level scale.
type spammer struct {
	name string
	rng  *rand.Rand
}

func (s *spammer) ID() string                { return s.name }
func (s *spammer) Concrete(fact.Set) float64 { return s.rng.Float64() }
func (s *spammer) ChooseSpecialization([]fact.Set) crowd.SpecializeResponse {
	return crowd.DeclineSpecialization()
}
func (s *spammer) Irrelevant([]vocab.Term) (vocab.Term, bool) { return vocab.None, false }

func TestSpamFilterBansInconsistentMember(t *testing.T) {
	s, q, sp := buildSpace(t, figure3Restricted)
	// The spammer goes first and three answers are required per question,
	// so it participates in every aggregation until caught.
	members := append([]crowd.Member{&spammer{name: "spam", rng: rand.New(rand.NewSource(3))}},
		sampleMembers(s)...)
	sess := runSession(Config{
		Space:      sp,
		Theta:      q.Support,
		Members:    members,
		Agg:        aggregate.NewFixedSample(3),
		SpamFilter: true,
	})
	res := sess.res
	for mi, g := range sess.eng.grades() {
		if g.banned != (mi == 0) {
			t.Errorf("%s: banned=%v (%d of %d graded answers hit); only the spammer should be",
				members[mi].ID(), g.banned, g.hits, g.trials)
		}
	}
	if res.Stats.BannedMembers != 1 {
		t.Fatalf("banned %d members, want 1", res.Stats.BannedMembers)
	}
	// The honest members' MSPs must survive despite the spammer's noise
	// contaminating a few early aggregations: at minimum the run finishes
	// and the biking MSP is found (both honest members agree strongly).
	got := mspNames(sp, res.ValidMSPs)
	if !got["y↦{Biking}, x↦{Central Park}"] {
		t.Errorf("biking MSP lost to spam: %v", got)
	}
}

func TestSpamFilterOffByDefault(t *testing.T) {
	s, q, sp := buildSpace(t, figure3Restricted)
	res := Run(Config{
		Space:   sp,
		Theta:   q.Support,
		Members: sampleMembers(s),
		Agg:     aggregate.NewFixedSample(2),
	})
	if res.Stats.BannedMembers != 0 {
		t.Error("members banned with filter disabled")
	}
}

// TestMaxSpecializationCandidates: the 16-member travel session offers
// specialization questions at many lattice nodes with more than
// maxSpecializationCandidates successors, so the cap must bind — no
// question lists more choices, and some list exactly that many.
func TestMaxSpecializationCandidates(t *testing.T) {
	sess, byID := newCrowdTravel(t).session()
	asked, atCap := 0, 0
	for qs := sess.Next(); qs != nil; qs = sess.Next() {
		q := qs[0]
		if q.Specialization() {
			asked++
			if n := len(q.Choices); n > maxSpecializationCandidates {
				t.Fatalf("question %d offers %d choices, want at most %d", q.ID, n, maxSpecializationCandidates)
			} else if n == maxSpecializationCandidates {
				atCap++
			}
		}
		if err := sess.Submit(q.ID, AnswerFrom(byID[q.Member], q)); err != nil {
			t.Fatalf("submit %d: %v", q.ID, err)
		}
	}
	if atCap == 0 {
		t.Errorf("none of %d specialization questions reached the %d-choice cap; the check is vacuous",
			asked, maxSpecializationCandidates)
	}
}

func TestMemberBudget(t *testing.T) {
	s, q, sp := buildSpace(t, figure3Restricted)
	res := Run(Config{
		Space:                 sp,
		Theta:                 q.Support,
		Members:               sampleMembers(s),
		Agg:                   aggregate.NewFixedSample(2),
		MaxQuestionsPerMember: 3,
	})
	// 2 members × 3 questions plus free/forced classifications: the total
	// counted answers cannot exceed the members' combined budget.
	if res.Stats.TotalQuestions > 6 {
		t.Errorf("counted answers %d exceed member budgets", res.Stats.TotalQuestions)
	}
}

func TestBraceMultiplicityMining(t *testing.T) {
	// {2}: mine pairs of activities done together at the same place.
	src := `SELECT FACT-SETS
WHERE
  $w subClassOf* Attraction.
  $x instanceOf $w.
  $x inside NYC.
  $x hasLabel "child-friendly".
  $y subClassOf* Activity
SATISFYING
  $y{2} doAt $x
WITH SUPPORT = 0.3`
	s, q, sp := buildSpace(t, src)
	res := Run(Config{
		Space:   sp,
		Theta:   q.Support,
		Members: sampleMembers(s),
		Agg:     aggregate.NewFixedSample(2),
	})
	// Supports: {Biking, Baseball} doAt CP is in T4 (1/6) and T7 (1/2):
	// mean 1/3 ≥ 0.3 — the only instance-level significant pair.
	got := mspNames(sp, res.ValidMSPs)
	if !got["y↦{Biking, Baseball}, x↦{Central Park}"] {
		t.Errorf("pair MSP missing: %v", got)
	}
	// Every reported node has exactly two activity values.
	for _, m := range res.MSPs {
		if len(m.Vals[0]) != 2 {
			t.Errorf("MSP with %d values under {2}: %s", len(m.Vals[0]), sp.Format(m))
		}
	}
}
