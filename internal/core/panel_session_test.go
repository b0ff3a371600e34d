package core

import (
	"errors"
	"fmt"
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/crowd"
)

// TestSessionSubmitBatch drives a session with successor speculation on,
// merging every round's questions through one SubmitBatch in reverse
// surfacing order: the batch must apply in deterministic (ID) order and
// the run must match the plain batch Run bit for bit, with the successor
// speculation actually surfacing extra concrete questions.
func TestSessionSubmitBatch(t *testing.T) {
	s, q, sp := buildSpace(t, figure3Restricted)
	batch := Run(Config{
		Space:   sp,
		Theta:   q.Support,
		Members: sampleMembers(s),
		Agg:     aggregate.NewFixedSample(2),
	})

	_, _, sp2 := buildSpace(t, figure3Restricted)
	sess := NewSession(Config{
		Space:            sp2,
		Theta:            q.Support,
		Agg:              aggregate.NewFixedSample(2),
		PanelSpeculation: 8,
	}, []string{"u1", "u2"})
	u1, u2 := crowd.SampleDBs(s)
	dbs := map[string]*crowd.PersonalDB{"u1": u1, "u2": u2}

	speculated := 0
	for qs := sess.Next(); qs != nil; qs = sess.Next() {
		subs := make([]Submission, 0, len(qs))
		for i := len(qs) - 1; i >= 0; i-- {
			if qs[i].Speculative {
				speculated++
			}
			subs = append(subs, Submission{ID: qs[i].ID, Answer: answerFromDB(dbs[qs[i].Member], qs[i])})
		}
		if err := sess.SubmitBatch(subs); err != nil && !errors.Is(err, ErrSessionDone) {
			t.Fatalf("SubmitBatch: %v", err)
		}
	}
	res := sess.Close()
	if sess.BufferedWaste() < 0 {
		t.Errorf("BufferedWaste = %d, want >= 0", sess.BufferedWaste())
	}
	want := mspNames(sp, batch.ValidMSPs)
	got := mspNames(sp2, res.ValidMSPs)
	if len(got) != len(want) {
		t.Fatalf("batched session %v vs batch run %v", got, want)
	}
	for k := range want {
		if !got[k] {
			t.Errorf("batched session missing MSP %s", k)
		}
	}
	if fmt.Sprintf("%+v", res.Stats) != fmt.Sprintf("%+v", batch.Stats) {
		t.Errorf("stats diverged:\nsession %+v\nbatch   %+v", res.Stats, batch.Stats)
	}
	// Two members with PanelSpeculation 8 on this space must surface more
	// than the blocked question's mirror.
	if speculated < 2 {
		t.Errorf("successor speculation surfaced %d question(s)", speculated)
	}
}

// TestSessionAggregateHint: the running aggregate panel.Prior reads
// is empty before any answer and reflects the collected mean after.
func TestSessionAggregateHint(t *testing.T) {
	s, q, sp := buildSpace(t, figure3Restricted)
	sess := NewSession(Config{
		Space: sp,
		Theta: q.Support,
		Agg:   aggregate.NewFixedSample(2),
	}, []string{"u1", "u2"})
	defer sess.Close()
	u1, _ := crowd.SampleDBs(s)

	qs := sess.Next()
	if len(qs) == 0 || qs[0].Kind != KindConcrete {
		t.Fatalf("first question = %+v, want concrete", qs)
	}
	first := qs[0]
	if mean, n := sess.AggregateHint(first.Facts); n != 0 || mean != 0 {
		t.Fatalf("hint before any answer = (%v, %d), want (0, 0)", mean, n)
	}
	support := u1.Support(first.Facts)
	if err := sess.Submit(first.ID, AnswerSupport(support)); err != nil {
		t.Fatal(err)
	}
	if mean, n := sess.AggregateHint(first.Facts); n != 1 || mean != support {
		t.Errorf("hint after one answer = (%v, %d), want (%v, 1)", mean, n, support)
	}
}
