package core

import (
	"math/rand"
	"slices"
	"testing"

	"oassis/internal/fact"
	"oassis/internal/vocab"
)

// TestSpeculationSkipMatchesOracle drives the 16-member travel session
// under random schedules — random open questions answered, speculative
// ones included, and random members leaving — and after every Next runs
// the every-call speculation pass: Next offers the round's node question
// only on the round's first call, so the pass must find nothing left to
// issue. One schedule runs the spam filter with two members answering at
// random (so bans happen mid-round), the other widens speculation to
// three successors.
func TestSpeculationSkipMatchesOracle(t *testing.T) {
	ct := newCrowdTravel(t)
	for _, tc := range []struct {
		name  string
		spam  bool
		panel int
	}{
		{"spam-filter", true, 0},
		{"panel-speculation", false, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			banned := 0
			for seed := int64(1); seed <= 3; seed++ {
				cfg := ct.config()
				cfg.SpamFilter = tc.spam
				cfg.PanelSpeculation = tc.panel
				members := ct.d.NewCrowd()
				ids := memberIDs(members)
				byID := make(map[string]int, len(ids))
				for i, id := range ids {
					byID[id] = i
				}
				sess := NewSession(cfg, ids)
				rng := rand.New(rand.NewSource(seed))
				answer := func(q Question) Answer {
					mi := byID[q.Member]
					if tc.spam && mi < 2 && q.Kind == KindConcrete {
						return AnswerSupport(float64(rng.Intn(5)) / 4)
					}
					return AnswerFrom(members[mi], q)
				}
				calls, leaves := 0, 0
				for qs := sess.Next(); qs != nil; qs = sess.Next() {
					calls++
					if n := sess.speculateEveryCall(); n != 0 {
						t.Fatalf("seed %d, Next %d (round %d, turn %d): the every-call pass issued %d questions Next skipped",
							seed, calls, sess.eng.at.round, sess.eng.at.turn, n)
					}
					// A few speculative questions first, then — half the
					// time — the blocked one, so rounds see many Nexts.
					picked := map[int]bool{}
					for range rng.Intn(4) {
						if i := 1 + rng.Intn(len(qs)); i < len(qs) && !picked[i] {
							picked[i] = true
							if err := sess.Submit(qs[i].ID, answer(qs[i])); err != nil {
								t.Fatalf("seed %d: submit speculative %d: %v", seed, qs[i].ID, err)
							}
						}
					}
					if rng.Intn(2) == 0 {
						if err := sess.Submit(qs[0].ID, answer(qs[0])); err != nil {
							t.Fatalf("seed %d: submit blocked %d: %v", seed, qs[0].ID, err)
						}
					}
					if leaves < 4 && rng.Intn(800) == 0 {
						leaves++
						sess.Leave(ids[rng.Intn(len(ids))])
					}
				}
				res := sess.Close()
				banned += res.Stats.BannedMembers
				if calls < 500 {
					t.Errorf("seed %d: only %d Nexts; the schedule should revisit rounds many times", seed, calls)
				}
			}
			if tc.spam && banned == 0 {
				t.Error("the spam filter banned nobody; the schedule never skipped a banned member")
			}
		})
	}
}

// TestPruneTerms pins the terms a pruning offer puts before the member:
// each distinct non-wildcard term of the question's facts once, in fact
// order, computed once per question — a second offer reads the same memo —
// into windows that later offers never overwrite.
func TestPruneTerms(t *testing.T) {
	_, _, sp := buildSpace(t, figure3Restricted)
	e := newEngine(Config{Space: sp, Theta: 0.4, EnablePruning: true}, []string{"u"})
	for _, c := range []struct {
		fs   fact.Set
		want []vocab.Term
	}{
		{fact.Set{{S: vocab.Any, R: 3, O: 4}}, []vocab.Term{3, 4}},
		{fact.Set{{S: 7, R: 12, O: 3}, {S: 7, R: 12, O: 5}}, []vocab.Term{7, 12, 3, 5}},
		{fact.Set{{S: vocab.Any, R: vocab.Any, O: vocab.Any}}, nil},
		{fact.Set{{S: 2, R: 2, O: 2}}, []vocab.Term{2}},
	} {
		q := e.qs.intern(c.fs)
		got := e.pruneTerms(q)
		if !slices.Equal(got, c.want) {
			t.Errorf("pruneTerms(%v) = %v, want %v", c.fs, got, c.want)
		}
		if again := e.pruneTerms(q); len(got) > 0 && &again[0] != &got[0] {
			t.Errorf("pruneTerms(%v) recomputed on the second offer", c.fs)
		}
	}
	if got := e.pruneTerms(0); !slices.Equal(got, []vocab.Term{3, 4}) {
		t.Errorf("first question's terms overwritten: %v", got)
	}
}

// TestPruneHitMatchesLeq checks the pruned-term bitsets against the rule
// they implement: a fact-set is pruning-implied for a member exactly when
// some term the member's ID pruned generalizes (or equals) one of its
// facts' subject, relation or object, by Vocabulary.Leq. Member indexes 0
// and 2 share one ID, so a prune by either covers both.
func TestPruneHitMatchesLeq(t *testing.T) {
	_, _, sp := buildSpace(t, figure3Restricted)
	voc := sp.Voc
	ids := []string{"u", "v", "u"}
	e := newEngine(Config{Space: sp, Theta: 0.4, EnablePruning: true}, ids)
	root := voc.Roots(vocab.Element)[0]
	prunes := []struct {
		mi int
		t  vocab.Term
	}{{0, root}, {1, vocab.Term(voc.Len() / 2)}, {2, vocab.Term(voc.Len() - 1)}}
	byID := map[string][]vocab.Term{}
	for _, p := range prunes {
		e.prune(p.mi, p.t)
		byID[ids[p.mi]] = append(byID[ids[p.mi]], p.t)
	}
	hits := 0
	for x := vocab.Any; int(x) < voc.Len(); x++ {
		if x == vocab.None {
			continue
		}
		for _, fs := range []fact.Set{
			{{S: x, R: vocab.Any, O: vocab.Any}},
			{{S: vocab.Any, R: x, O: vocab.Any}},
			{{S: vocab.Any, R: vocab.Any, O: x}},
		} {
			for mi, id := range ids {
				want := false
				for _, p := range byID[id] {
					f := fs[0]
					want = want || voc.Leq(p, f.S) || voc.Leq(p, f.R) || voc.Leq(p, f.O)
				}
				if got := e.pruneHit(mi, fs); got != want {
					t.Errorf("member %d (%s), facts %v: pruneHit %v, Leq over the pruned terms %v", mi, id, fs, got, want)
				}
				if want {
					hits++
				}
			}
		}
	}
	if hits == 0 {
		t.Fatal("no fact-set is pruning-implied: the comparison proved nothing")
	}
	t.Logf("%d pruning-implied (member, fact-set) pairs", hits)
}
