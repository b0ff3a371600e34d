package core

import (
	"math/rand"
	"testing"

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

// TestPruneKey pins the ask keys of pruning questions: the terms in
// order, comma-separated, in decimal.
func TestPruneKey(t *testing.T) {
	for _, c := range []struct {
		terms []vocab.Term
		want  string
	}{
		{nil, ""},
		{[]vocab.Term{}, ""},
		{[]vocab.Term{0}, "0"},
		{[]vocab.Term{7, 12, 3}, "7,12,3"},
		{[]vocab.Term{-1, 5, -42}, "-1,5,-42"},
		{[]vocab.Term{2147483647, -2147483648}, "2147483647,-2147483648"},
	} {
		if got := pruneKey(c.terms); got != c.want {
			t.Errorf("pruneKey(%v) = %q, want %q", c.terms, got, c.want)
		}
	}
}
