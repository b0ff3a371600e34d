package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"oassis/internal/aggregate"
	"oassis/internal/crowd"
	"oassis/internal/plan"
	"oassis/internal/synth"
)

// driveSession answers every surfaced question (blocked and speculative)
// from the members' personal DBs, like the crowd with those histories
// would, until the run finishes.
func driveSession(t *testing.T, s *Session, dbs map[string]*crowd.PersonalDB) {
	t.Helper()
	for qs := s.Next(); qs != nil; qs = s.Next() {
		if len(qs) == 0 {
			t.Fatal("Next returned an empty, non-nil slice")
		}
		for _, q := range qs {
			db := dbs[q.Member]
			if db == nil {
				t.Fatalf("question for unknown member %q", q.Member)
			}
			if err := s.Submit(q.ID, answerFromDB(db, q)); err != nil {
				t.Fatalf("submit %d: %v", q.ID, err)
			}
			if s.Done() {
				break
			}
		}
	}
}

// answerFromDB answers one question the way a member with that personal
// history would.
func answerFromDB(db *crowd.PersonalDB, q Question) Answer {
	if q.Specialization() {
		for i, c := range q.Choices {
			if db.Support(c) >= 0.3 {
				return AnswerChoice(i, db.Support(c))
			}
		}
		return AnswerNoneOfThese()
	}
	return AnswerSupport(db.Support(q.Facts))
}

// crowdTravel is the repo benchmark's mine-crowd input: the paper's travel
// domain with a 16-member simulated crowd, queried at θ=0.2 with five
// answers per question, specialization 0.35, user-guided pruning and a
// seeded engine RNG. With 16 members every Next speculates over the crowd,
// so the session's open list runs to hundreds of questions.
type crowdTravel struct {
	d  *synth.Domain
	pl *plan.Plan
}

func newCrowdTravel(tb testing.TB) crowdTravel {
	tb.Helper()
	dc := synth.Travel
	dc.Members = 16
	d, err := synth.GenerateDomain(dc)
	if err != nil {
		tb.Fatal(err)
	}
	pl, err := d.Plan(0.2)
	if err != nil {
		tb.Fatal(err)
	}
	return crowdTravel{d: d, pl: pl}
}

// config returns a fresh configuration (lattice, aggregator, engine RNG)
// without members.
func (c crowdTravel) config() Config {
	return Config{
		Space:               c.pl.NewSpace(),
		Theta:               0.2,
		Agg:                 aggregate.NewFixedSample(5),
		SpecializationRatio: 0.35,
		EnablePruning:       true,
		Rng:                 rand.New(rand.NewSource(1)),
	}
}

// session opens a session over a fresh crowd, returning the members by ID.
func (c crowdTravel) session() (*Session, map[string]crowd.Member) {
	members := c.d.NewCrowd()
	byID := make(map[string]crowd.Member, len(members))
	for _, m := range members {
		byID[m.ID()] = m
	}
	return NewSession(c.config(), memberIDs(members)), byID
}

func TestSessionMatchesBatchRun(t *testing.T) {
	s, q, sp := buildSpace(t, figure3Restricted)
	batch := Run(Config{
		Space:   sp,
		Theta:   q.Support,
		Members: sampleMembers(s),
		Agg:     aggregate.NewFixedSample(2),
	})

	_, _, sp2 := buildSpace(t, figure3Restricted)
	sess := NewSession(Config{
		Space: sp2,
		Theta: q.Support,
		Agg:   aggregate.NewFixedSample(2),
	}, []string{"u1", "u2"})
	u1, u2 := crowd.SampleDBs(s)
	driveSession(t, sess, map[string]*crowd.PersonalDB{"u1": u1, "u2": u2})

	res := sess.Close()
	want := mspNames(sp, batch.ValidMSPs)
	got := mspNames(sp2, res.ValidMSPs)
	if len(got) != len(want) {
		t.Fatalf("session %v vs batch %v", got, want)
	}
	for k := range want {
		if !got[k] {
			t.Errorf("session run missing MSP %s", k)
		}
	}
	if fmt.Sprintf("%+v", res.Stats) != fmt.Sprintf("%+v", batch.Stats) {
		t.Errorf("stats diverged:\nsession %+v\nbatch   %+v", res.Stats, batch.Stats)
	}
}

// TestSessionSpeculativeOrder answers the speculative questions before the
// engine's blocked one on every step: the merge order must not change the
// outcome, and speculation must actually surface extra questions.
func TestSessionSpeculativeOrder(t *testing.T) {
	s, q, sp := buildSpace(t, figure3Restricted)
	batch := Run(Config{
		Space:   sp,
		Theta:   q.Support,
		Members: sampleMembers(s),
		Agg:     aggregate.NewFixedSample(2),
	})

	_, _, sp2 := buildSpace(t, figure3Restricted)
	sess := NewSession(Config{
		Space: sp2,
		Theta: q.Support,
		Agg:   aggregate.NewFixedSample(2),
	}, []string{"u1", "u2"})
	u1, u2 := crowd.SampleDBs(s)
	dbs := map[string]*crowd.PersonalDB{"u1": u1, "u2": u2}

	sawSpeculative := false
	for qs := sess.Next(); qs != nil; qs = sess.Next() {
		// Reverse order: speculative answers land first, the blocked
		// question last.
		for i := len(qs) - 1; i >= 0 && !sess.Done(); i-- {
			q := qs[i]
			if q.Speculative {
				sawSpeculative = true
			}
			if err := sess.Submit(q.ID, answerFromDB(dbs[q.Member], q)); err != nil {
				t.Fatalf("submit: %v", err)
			}
		}
	}
	if !sawSpeculative {
		t.Error("no speculative question surfaced for a two-member crowd")
	}
	res := sess.Close()
	want := mspNames(sp, batch.ValidMSPs)
	got := mspNames(sp2, res.ValidMSPs)
	if len(got) != len(want) {
		t.Fatalf("session %v vs batch %v", got, want)
	}
	if fmt.Sprintf("%+v", res.Stats) != fmt.Sprintf("%+v", batch.Stats) {
		t.Errorf("stats diverged:\nsession %+v\nbatch   %+v", res.Stats, batch.Stats)
	}
}

// TestSessionNextOrder drives the 16-member travel session with Next()[0]
// to the end and checks Next's contract on every call: the blocked
// question first, then speculative questions in strictly ascending ID
// order; no answered or retired ID ever comes back; an answered ID
// rejects a second answer; a retired ID takes exactly one late answer.
// The late answers are the members' own (concrete answers are pure), so
// the result must still equal Run's.
func TestSessionNextOrder(t *testing.T) {
	ct := newCrowdTravel(t)
	cfg := ct.config()
	cfg.Members = ct.d.NewCrowd()
	want := summarize(cfg.Space, Run(cfg))

	sess, byID := ct.session()
	sp := sess.eng.cfg.Space
	gone := map[QuestionID]bool{}         // answered or retired
	surfaced := map[QuestionID]Question{} // surfaced by the last Next, still open
	// retireLate gives each question the last Next surfaced and this one
	// did not (retired unanswered) its one late answer.
	retireLate := func(open map[QuestionID]bool) (n int) {
		for id, q := range surfaced {
			if open[id] || gone[id] {
				continue
			}
			gone[id] = true
			if err := sess.Submit(id, AnswerFrom(byID[q.Member], q)); err != nil {
				t.Fatalf("late answer to retired %d: %v", id, err)
			}
			if err := sess.Submit(id, AnswerFrom(byID[q.Member], q)); !errors.Is(err, ErrUnknownQuestion) {
				t.Fatalf("second late answer to retired %d: got %v, want ErrUnknownQuestion", id, err)
			}
			n++
		}
		return n
	}
	calls, retired := 0, 0
	for qs := sess.Next(); qs != nil; qs = sess.Next() {
		calls++
		if qs[0].ID != sess.open[sess.blocked].id {
			t.Fatalf("call %d: qs[0] is %d, the engine is blocked on %d", calls, qs[0].ID, sess.open[sess.blocked].id)
		}
		open := make(map[QuestionID]bool, len(qs))
		for i, q := range qs {
			if gone[q.ID] {
				t.Fatalf("call %d: answered or retired question %d surfaced again", calls, q.ID)
			}
			if i > 0 && !q.Speculative {
				t.Fatalf("call %d: non-speculative question %d after the blocked one", calls, q.ID)
			}
			if i > 1 && q.ID <= qs[i-1].ID {
				t.Fatalf("call %d: IDs %d then %d are not ascending", calls, qs[i-1].ID, q.ID)
			}
			if i > 0 && q.ID == qs[0].ID {
				t.Fatalf("call %d: blocked question %d surfaced twice", calls, q.ID)
			}
			open[q.ID] = true
		}
		retired += retireLate(open)
		clear(surfaced)
		for _, q := range qs[1:] {
			surfaced[q.ID] = q
		}
		q := qs[0]
		if err := sess.Submit(q.ID, AnswerFrom(byID[q.Member], q)); err != nil {
			t.Fatalf("submit %d: %v", q.ID, err)
		}
		gone[q.ID] = true
		if sess.Done() {
			break
		}
		if err := sess.Submit(q.ID, AnswerSupport(1)); !errors.Is(err, ErrUnknownQuestion) {
			t.Fatalf("second answer to %d: got %v, want ErrUnknownQuestion", q.ID, err)
		}
	}
	// The run's end retires whatever was still open.
	retireLate(nil)
	if retired == 0 {
		t.Error("no speculative question was retired mid-run")
	}
	if got := summarize(sp, sess.Close()); got != want {
		t.Errorf("session diverged from Run:\nsession %s\nrun     %s", got, want)
	}
}

// TestNextViewMatchesOracle drives the 16-member travel session under
// random schedules — random open questions answered, speculative ones
// included, random members leaving, and AppendNext, AppendOpen and Lookup
// calls in between — and after every Next compares the view, which Next
// re-renders only from the lowest question ID that changed place, with
// the full render of the slab (fullView) field by field. One schedule runs
// the spam filter with two members answering at random, the other widens
// speculation to three panel successors.
func TestNextViewMatchesOracle(t *testing.T) {
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
				var buf []Question
				calls, partial, leaves := 0, 0, 0
				for qs := sess.Next(); qs != nil; qs = sess.Next() {
					calls++
					if sess.view.mark != math.MaxInt64 {
						t.Fatalf("seed %d, Next %d: mark %d left after the render", seed, calls, sess.view.mark)
					}
					want := sess.fullView()
					if len(qs) != len(want) {
						t.Fatalf("seed %d, Next %d: %d questions, the full render %d", seed, calls, len(qs), len(want))
					}
					for i := range want {
						if err := sameRender(qs[i], want[i]); err != nil {
							t.Fatalf("seed %d, Next %d, slot %d of %d: %v", seed, calls, i, len(qs), err)
						}
					}
					// Readers that must leave the view alone.
					switch rng.Intn(4) {
					case 0:
						buf = sess.AppendNext(buf[:0])
						partial++
					case 1:
						buf = sess.AppendOpen(buf[:0], ids[rng.Intn(len(ids))])
					case 2:
						sess.Lookup(qs[rng.Intn(len(qs))].ID)
					}
					// A few speculative questions, then — half the time —
					// the blocked one, so most Nexts keep most of the view.
					picked := map[int]bool{}
					for range rng.Intn(3) {
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
				sess.Close()
				if calls < 500 || partial == 0 {
					t.Errorf("seed %d: %d Nexts, %d AppendNexts between them; the schedule should revisit the view many times", seed, calls, partial)
				}
			}
		})
	}
}

// sameRender reports how q differs from the oracle's rendering of the same
// slot: ID, member, kind, the speculative flag, and the facts, choices and
// terms, which must share the oracle's backing arrays.
func sameRender(q, want Question) error {
	switch {
	case q.ID != want.ID || q.Member != want.Member || q.Kind != want.Kind || q.Speculative != want.Speculative:
		return fmt.Errorf("question %d of %s (%v, speculative %v), want %d of %s (%v, speculative %v)",
			q.ID, q.Member, q.Kind, q.Speculative, want.ID, want.Member, want.Kind, want.Speculative)
	case !sameSlice(q.Facts, want.Facts):
		return fmt.Errorf("question %d: facts %v, want %v", q.ID, q.Facts, want.Facts)
	case !sameSlice(q.Choices, want.Choices):
		return fmt.Errorf("question %d: %d choices, want %d", q.ID, len(q.Choices), len(want.Choices))
	case !sameSlice(q.Terms, want.Terms):
		return fmt.Errorf("question %d: terms %v, want %v", q.ID, q.Terms, want.Terms)
	}
	return nil
}

// sameSlice reports whether a and b are the same window of one backing
// array (or both nil).
func sameSlice[E any](a, b []E) bool {
	return len(a) == len(b) && unsafe.SliceData(a) == unsafe.SliceData(b)
}

// TestSessionBlockedNotSpeculative drives the 16-member travel session
// with Next()[0] to the end: the engine's blocked question must never read
// as speculative, also when the engine adopted an already issued
// speculative question.
func TestSessionBlockedNotSpeculative(t *testing.T) {
	sess, byID := newCrowdTravel(t).session()
	calls := 0
	for qs := sess.Next(); qs != nil; qs = sess.Next() {
		calls++
		if qs[0].Speculative {
			t.Fatalf("call %d: blocked question %d is flagged speculative", calls, qs[0].ID)
		}
		if err := sess.Submit(qs[0].ID, AnswerFrom(byID[qs[0].Member], qs[0])); err != nil {
			t.Fatal(err)
		}
	}
	if calls == 0 {
		t.Fatal("no questions asked")
	}
}

// TestSessionAppendOpenLookup checks the per-member reads against Next on
// every call of the travel session: AppendOpen is Next filtered to one
// member (blocked question first, then ID order), Lookup returns every
// open question in full, a retired one by member and kind until its one
// late answer, and nothing for an answered one or ID 0.
func TestSessionAppendOpenLookup(t *testing.T) {
	sess, byID := newCrowdTravel(t).session()
	if _, ok := sess.Lookup(0); ok {
		t.Fatal("ID 0 names a question")
	}
	var prev []Question
	var buf []Question
	for qs := sess.Next(); qs != nil; qs = sess.Next() {
		open := make(map[QuestionID]bool, len(qs))
		for _, q := range qs {
			open[q.ID] = true
			if got, ok := sess.Lookup(q.ID); !ok || got.ID != q.ID || got.Facts.Key() != q.Facts.Key() {
				t.Fatalf("Lookup(%d) = %+v, %v; want the open question", q.ID, got, ok)
			}
		}
		for id := range byID {
			buf = sess.AppendOpen(buf[:0], id)
			var want []Question
			for _, q := range qs {
				if q.Member == id {
					want = append(want, q)
				}
			}
			if fmt.Sprint(buf) != fmt.Sprint(want) {
				t.Fatalf("AppendOpen(%s) = %v, want %v", id, buf, want)
			}
		}
		for _, q := range prev {
			if open[q.ID] {
				continue
			}
			got, ok := sess.Lookup(q.ID)
			if !ok {
				continue // answered
			}
			if got.Member != q.Member || got.Kind != q.Kind {
				t.Fatalf("retired Lookup(%d) = %+v, want member %s kind %v", q.ID, got, q.Member, q.Kind)
			}
			if err := sess.Submit(q.ID, AnswerFrom(byID[q.Member], q)); err != nil {
				t.Fatalf("late answer to %d: %v", q.ID, err)
			}
			if _, ok := sess.Lookup(q.ID); ok {
				t.Fatalf("retired %d still found after its late answer", q.ID)
			}
		}
		prev = append(prev[:0], qs...)
		q := qs[0]
		if err := sess.Submit(q.ID, AnswerFrom(byID[q.Member], q)); err != nil {
			t.Fatal(err)
		}
		if _, ok := sess.Lookup(q.ID); ok && !sess.Done() {
			t.Fatalf("answered %d still found", q.ID)
		}
	}
	for id := range byID {
		if got := sess.AppendOpen(buf[:0], id); len(got) != 0 {
			t.Errorf("finished session still has open questions for %s: %v", id, got)
		}
	}
}

// TestSessionLeaveRetiresSpeculative leaves a member right after they get
// a speculative question: no later Next may surface a question for them,
// each retired question still takes one late answer, and the late answers
// leave the result unchanged.
func TestSessionLeaveRetiresSpeculative(t *testing.T) {
	run := func(late bool) string {
		s, q, sp := buildSpace(t, figure3Restricted)
		sess := NewSession(Config{
			Space: sp,
			Theta: q.Support,
			Agg:   aggregate.NewFixedSample(3),
		}, []string{"u1", "u2", "quitter"})
		u1, u2 := crowd.SampleDBs(s)
		dbs := map[string]*crowd.PersonalDB{"u1": u1, "u2": u2, "quitter": u2}
		var leftWith []QuestionID
		for qs := sess.Next(); qs != nil; qs = sess.Next() {
			if leftWith == nil {
				for _, q := range qs {
					if q.Member == "quitter" && q.Speculative {
						leftWith = append(leftWith, q.ID)
					}
				}
				if leftWith != nil {
					sess.Leave("quitter")
					if late {
						for _, id := range leftWith {
							if err := sess.Submit(id, AnswerSupport(1)); err != nil {
								t.Fatalf("late answer to %d: %v", id, err)
							}
							if err := sess.Submit(id, AnswerSupport(1)); !errors.Is(err, ErrUnknownQuestion) {
								t.Fatalf("second late answer to %d: got %v, want ErrUnknownQuestion", id, err)
							}
						}
					}
					continue
				}
			} else {
				for _, q := range qs {
					if q.Member == "quitter" {
						t.Fatalf("question %d for quitter surfaced after Leave", q.ID)
					}
				}
			}
			q := qs[0]
			if err := sess.Submit(q.ID, answerFromDB(dbs[q.Member], q)); err != nil {
				t.Fatalf("submit %d: %v", q.ID, err)
			}
		}
		if leftWith == nil {
			t.Fatal("quitter never got a speculative question")
		}
		return summarize(sp, sess.Close())
	}
	if with, without := run(true), run(false); with != without {
		t.Errorf("late answers changed the result:\nwith    %s\nwithout %s", with, without)
	}
}

func TestSessionSpecializationFlow(t *testing.T) {
	s, q, sp := buildSpace(t, figure3Restricted)
	sess := NewSession(Config{
		Space:               sp,
		Theta:               q.Support,
		Agg:                 aggregate.NewFixedSample(1),
		SpecializationRatio: 1,
	}, []string{"u1"})
	u1, _ := crowd.SampleDBs(s)
	sawSpecialization := false
	for qs := sess.Next(); qs != nil; qs = sess.Next() {
		q := qs[0]
		if q.Specialization() {
			sawSpecialization = true
			if err := sess.Submit(q.ID, AnswerDecline()); err != nil {
				t.Fatalf("submit: %v", err)
			}
			continue
		}
		if err := sess.Submit(q.ID, AnswerSupport(u1.Support(q.Facts))); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	res := sess.Close()
	if !sawSpecialization {
		t.Error("no specialization question delivered at ratio 1")
	}
	if len(res.MSPs) == 0 {
		t.Error("no MSPs from session specialization flow")
	}
}

// TestSessionOutOfRangeChoice: a specialization answer naming a candidate
// that was never offered counts as "none of these" instead of indexing
// past the candidates.
func TestSessionOutOfRangeChoice(t *testing.T) {
	s, q, sp := buildSpace(t, figure3Restricted)
	sess := NewSession(Config{
		Space:               sp,
		Theta:               q.Support,
		Agg:                 aggregate.NewFixedSample(1),
		SpecializationRatio: 1,
	}, []string{"u1"})
	u1, _ := crowd.SampleDBs(s)
	bad := 0
	for qs := sess.Next(); qs != nil; qs = sess.Next() {
		q := qs[0]
		a := AnswerSupport(u1.Support(q.Facts))
		if q.Specialization() {
			a = AnswerChoice(len(q.Choices), 1)
			bad++
		}
		if err := sess.Submit(q.ID, a); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	res := sess.Close()
	if bad == 0 {
		t.Fatal("no specialization question surfaced at ratio 1")
	}
	if res.Stats.NoneOfThese != bad {
		t.Errorf("NoneOfThese = %d, want %d (one per out-of-range choice)", res.Stats.NoneOfThese, bad)
	}
}

func TestSessionLeave(t *testing.T) {
	s, q, sp := buildSpace(t, figure3Restricted)
	sess := NewSession(Config{
		Space: sp,
		Theta: q.Support,
		Agg:   aggregate.NewFixedSample(2),
	}, []string{"u1", "quitter"})
	u1, _ := crowd.SampleDBs(s)
	quitterAnswers := 0
	for qs := sess.Next(); qs != nil; qs = sess.Next() {
		q := qs[0]
		switch q.Member {
		case "quitter":
			quitterAnswers++
			if err := sess.Submit(q.ID, AnswerSupport(0.5)); err != nil {
				t.Fatalf("submit: %v", err)
			}
			if quitterAnswers == 2 {
				sess.Leave("quitter")
			}
		default:
			if err := sess.Submit(q.ID, answerFromDB(u1, q)); err != nil {
				t.Fatalf("submit: %v", err)
			}
		}
	}
	res := sess.Close()
	if res == nil {
		t.Fatal("no result after a member left")
	}
	// Leaving twice is harmless; leaving an unknown member too.
	sess.Leave("quitter")
	sess.Leave("nobody")
}

// TestSessionLeaveBlockedMember leaves the member the engine is currently
// parked on; the session must catch the engine up to its next question
// rather than deadlock.
func TestSessionLeaveBlockedMember(t *testing.T) {
	s, q, sp := buildSpace(t, figure3Restricted)
	sess := NewSession(Config{
		Space: sp,
		Theta: q.Support,
		Agg:   aggregate.NewFixedSample(2),
	}, []string{"quitter", "u1"})
	u1, _ := crowd.SampleDBs(s)
	qs := sess.Next()
	if qs[0].Member != "quitter" {
		t.Fatalf("first question for %s, want quitter", qs[0].Member)
	}
	leftID := qs[0].ID
	sess.Leave("quitter")
	for qs := sess.Next(); qs != nil; qs = sess.Next() {
		q := qs[0]
		if q.Member == "quitter" {
			t.Fatal("question for a member who left")
		}
		if err := sess.Submit(q.ID, answerFromDB(u1, q)); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	// A late answer to the abandoned question is accepted and dropped
	// until Close.
	if err := sess.Submit(leftID, AnswerSupport(1)); err != nil {
		t.Errorf("late submit to retired question: %v", err)
	}
	if sess.Close() == nil {
		t.Fatal("no result")
	}
}

// TestSessionCloseDropsRetired retires a question mid-run on the travel
// session and closes the session before its late answer arrives: Close
// ends the late-answer grace, so Lookup no longer finds the question and
// Submit reports ErrSessionDone.
func TestSessionCloseDropsRetired(t *testing.T) {
	sess, byID := newCrowdTravel(t).session()
	var prev []Question
	retired := QuestionID(0)
	for qs := sess.Next(); qs != nil && retired == 0; qs = sess.Next() {
		open := make(map[QuestionID]bool, len(qs))
		for _, q := range qs {
			open[q.ID] = true
		}
		for _, q := range prev {
			if _, ok := sess.Lookup(q.ID); ok && !open[q.ID] {
				retired = q.ID
				break
			}
		}
		prev = append(prev[:0], qs...)
		q := qs[0]
		if err := sess.Submit(q.ID, AnswerFrom(byID[q.Member], q)); err != nil {
			t.Fatal(err)
		}
	}
	if retired == 0 {
		t.Fatal("no question was retired mid-run")
	}
	if _, ok := sess.Lookup(retired); !ok {
		t.Fatalf("retired %d lost its late answer before Close", retired)
	}
	sess.Close()
	if q, ok := sess.Lookup(retired); ok {
		t.Errorf("Lookup(%d) after Close = %+v, want not found", retired, q)
	}
	if err := sess.Submit(retired, AnswerSupport(1)); !errors.Is(err, ErrSessionDone) {
		t.Errorf("Submit(%d) after Close = %v, want ErrSessionDone", retired, err)
	}
}

// TestSessionLateAnswersOutOfOrder: retired questions are kept in ID
// order, and each takes exactly one late answer whatever the order the
// late answers arrive in. On the travel loop a member leaves mid-round,
// which retires their open questions ahead of the older ones the round
// change retires next. At the round after, the late answers go in,
// shuffled: each is accepted once and refused after, a retired ID not yet
// answered stays findable until its own late answer, and the run, driven
// on to the end, mines what a run without late answers mines.
func TestSessionLateAnswersOutOfOrder(t *testing.T) {
	ct := newCrowdTravel(t)
	run := func(late bool) string {
		sess, byID := ct.session()
		seen := make(map[QuestionID]Question)
		var retired []Question
		leftRound := 0 // the round the quitter left in
		for qs := sess.Next(); qs != nil; qs = sess.Next() {
			for _, q := range qs {
				seen[q.ID] = q
			}
			if quitter := sess.eng.ids[8]; leftRound == 0 && sess.nextID > 300 &&
				slices.ContainsFunc(qs, func(q Question) bool { return q.Member == quitter && q.ID < qs[len(qs)-1].ID }) {
				sess.Leave(quitter)
				leftRound = sess.eng.at.round
				continue
			}
			if len(retired) == 0 && leftRound > 0 && sess.eng.at.round > leftRound {
				if !slices.IsSortedFunc(sess.retired, func(a, b retiredQ) int { return cmp.Compare(a.id, b.id) }) {
					t.Fatal("retired questions out of ID order")
				}
				for _, r := range sess.retired {
					retired = append(retired, seen[r.id])
				}
				rand.New(rand.NewSource(5)).Shuffle(len(retired), func(i, j int) {
					retired[i], retired[j] = retired[j], retired[i]
				})
				for i, q := range retired {
					if !late {
						break
					}
					if err := sess.Submit(q.ID, AnswerFrom(byID[q.Member], q)); err != nil {
						t.Fatalf("late answer to retired %d: %v", q.ID, err)
					}
					if err := sess.Submit(q.ID, AnswerFrom(byID[q.Member], q)); !errors.Is(err, ErrUnknownQuestion) {
						t.Fatalf("second late answer to retired %d: got %v, want ErrUnknownQuestion", q.ID, err)
					}
					for _, r := range retired[i+1:] {
						if got, ok := sess.Lookup(r.ID); !ok || got.Member != r.Member || got.Kind != r.Kind {
							t.Fatalf("retired %d lost (%+v, %v) after the late answer to %d", r.ID, got, ok, q.ID)
						}
					}
				}
				continue
			}
			q := qs[0]
			if err := sess.Submit(q.ID, AnswerFrom(byID[q.Member], q)); err != nil {
				t.Fatalf("submit %d: %v", q.ID, err)
			}
		}
		if len(retired) < 40 {
			t.Fatalf("%d questions retired by the round after the quitter left, want at least 40", len(retired))
		}
		res := sess.Close()
		return summarize(sess.eng.cfg.Space, res)
	}
	if with, without := run(true), run(false); with != without {
		t.Errorf("late answers changed the result:\nwith    %s\nwithout %s", with, without)
	}
}

func TestSessionSubmitErrors(t *testing.T) {
	_, q, sp := buildSpace(t, figure3Restricted)
	sess := NewSession(Config{
		Space:        sp,
		Theta:        q.Support,
		Agg:          aggregate.NewFixedSample(1),
		MaxQuestions: 1,
	}, []string{"u1"})
	qs := sess.Next()
	if len(qs) == 0 {
		t.Fatal("no first question")
	}
	if err := sess.Submit(QuestionID(999), AnswerSupport(1)); !errors.Is(err, ErrUnknownQuestion) {
		t.Errorf("unknown id: got %v, want ErrUnknownQuestion", err)
	}
	if err := sess.Submit(qs[0].ID, AnswerSupport(1)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	// The one-question budget ends the run.
	for qs := sess.Next(); qs != nil; qs = sess.Next() {
		if err := sess.Submit(qs[0].ID, AnswerSupport(1)); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	if !sess.Done() {
		t.Fatal("session not done after budget")
	}
	if err := sess.Submit(QuestionID(998), AnswerSupport(1)); !errors.Is(err, ErrSessionDone) {
		t.Errorf("submit after done: got %v, want ErrSessionDone", err)
	}
	if sess.Result() == nil {
		t.Error("no result after done")
	}
	if sess.Close() == nil {
		t.Error("Close lost the result")
	}
}

// TestSessionCloseMidRun abandons the run with a question outstanding; the
// engine must wind down and report the partial result.
func TestSessionCloseMidRun(t *testing.T) {
	_, q, sp := buildSpace(t, figure3Restricted)
	sess := NewSession(Config{
		Space: sp,
		Theta: q.Support,
		Agg:   aggregate.NewFixedSample(1),
	}, []string{"u1"})
	if qs := sess.Next(); len(qs) == 0 {
		t.Fatal("no first question")
	}
	res := sess.Close()
	if res == nil {
		t.Fatal("no partial result from Close")
	}
	if sess.Next() != nil {
		t.Error("Next after Close surfaced a question")
	}
}

// TestSessionCanceled wires Config.Canceled the way ExecContext does and
// cancels after the first answer: the run must stop early with a partial
// result.
func TestSessionCanceled(t *testing.T) {
	_, q, sp := buildSpace(t, figure3Restricted)
	canceled := false
	sess := NewSession(Config{
		Space:    sp,
		Theta:    q.Support,
		Agg:      aggregate.NewFixedSample(1),
		Canceled: func() bool { return canceled },
	}, []string{"u1"})
	qs := sess.Next()
	if len(qs) == 0 {
		t.Fatal("no first question")
	}
	canceled = true
	if err := sess.Submit(qs[0].ID, AnswerSupport(1)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	for qs := sess.Next(); qs != nil; qs = sess.Next() {
		if err := sess.Submit(qs[0].ID, AnswerSupport(1)); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	res := sess.Close()
	if res == nil {
		t.Fatal("no result after cancellation")
	}
	// The discarded in-flight answer must not have been recorded.
	if res.Stats.TotalQuestions != 0 {
		t.Errorf("answers recorded after cancel: %d", res.Stats.TotalQuestions)
	}
}

// TestSessionPruningFlow routes a user-guided pruning click through the
// session protocol.
func TestSessionPruningFlow(t *testing.T) {
	s, q, sp := buildSpace(t, figure3Restricted)
	sess := NewSession(Config{
		Space:         sp,
		Theta:         q.Support,
		Agg:           aggregate.NewFixedSample(1),
		EnablePruning: true,
	}, []string{"u1"})
	u1, _ := crowd.SampleDBs(s)
	sawPruning := false
	for qs := sess.Next(); qs != nil; qs = sess.Next() {
		q := qs[0]
		if q.Kind == KindPruning {
			sawPruning = true
			// Click the first term that never occurs in the history.
			ans := AnswerNoClick()
			for i, term := range q.Terms {
				if !u1.ContainsTerm(term) {
					ans = AnswerIrrelevant(i)
					break
				}
			}
			if err := sess.Submit(q.ID, ans); err != nil {
				t.Fatalf("submit: %v", err)
			}
			continue
		}
		if err := sess.Submit(q.ID, answerFromDB(u1, q)); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	res := sess.Close()
	if !sawPruning {
		t.Error("no pruning question surfaced with EnablePruning")
	}
	if res.Stats.Pruning == 0 {
		t.Error("pruning click not recorded")
	}
}
