package oassis

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// renderResult flattens a result for bit-identity comparison: the valid
// MSP texts (sorted; execution order is not part of the contract) plus
// the crowd-effort statistics.
func renderResult(t *testing.T, res *Result) string {
	t.Helper()
	var texts []string
	for _, m := range res.MSPs {
		texts = append(texts, m.Text)
	}
	sort.Strings(texts)
	return strings.Join(texts, "\n") + fmt.Sprintf("\nstats: %+v", res.Stats)
}

// panelSim wraps a simulated member into a PanelMember and records the
// largest batch it was handed, so tests can prove batching happened.
type panelSim struct {
	Member
	maxBatch int
}

func (p *panelSim) AnswerPanel(qs []PanelQuestion) []float64 {
	if len(qs) > p.maxBatch {
		p.maxBatch = len(qs)
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = p.HowOften(q.Facts)
	}
	return out
}

// TestWithPanelSizeEquivalence: Exec with panel batching on — at several
// sizes, with and without dispatch parallelism, with PanelMember
// batch-answering — mines a result bit-identical to the one-question
// default, and the members really see multi-question panels.
func TestWithPanelSizeEquivalence(t *testing.T) {
	db := SampleDB()
	q, err := ParseQuery(figure2)
	if err != nil {
		t.Fatal(err)
	}
	boathouse := WithMoreCandidates(Triple{"Rent Bikes", "doAt", "Boathouse"})
	base, err := Exec(db, q, table3Members(t, db), WithAnswersPerQuestion(2), boathouse)
	if err != nil {
		t.Fatal(err)
	}
	want := renderResult(t, base)
	for _, tc := range []struct {
		name        string
		size, par   int
		wantBatched bool
	}{
		{"size1", 1, 1, false},
		{"size4", 4, 1, true},
		{"size16-par8", 16, 8, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sims := table3Members(t, db)
			members := make([]Member, len(sims))
			wrapped := make([]*panelSim, len(sims))
			for i, m := range sims {
				wrapped[i] = &panelSim{Member: m}
				members[i] = wrapped[i]
			}
			res, err := Exec(db, q, members, WithAnswersPerQuestion(2), boathouse,
				WithPanelSize(tc.size), WithParallelism(tc.par))
			if err != nil {
				t.Fatal(err)
			}
			if got := renderResult(t, res); got != want {
				t.Errorf("panel run diverged from one-question run:\n--- got\n%s\n--- want\n%s", got, want)
			}
			maxBatch := 0
			for _, w := range wrapped {
				if w.maxBatch > maxBatch {
					maxBatch = w.maxBatch
				}
			}
			if tc.wantBatched && maxBatch < 2 {
				t.Errorf("largest batch handed to a PanelMember was %d; batching never happened", maxBatch)
			}
			if !tc.wantBatched && maxBatch > 1 {
				t.Errorf("panel size 1 handed out a batch of %d", maxBatch)
			}
		})
	}
}

// TestAdaptMember: wrapping a single-question member answers each panel
// item with HowOften, and wrapping an existing PanelMember is the
// identity.
func TestAdaptMember(t *testing.T) {
	db := SampleDB()
	sims := table3Members(t, db)
	pm := AdaptMember(sims[0])
	facts := [][]Triple{
		{{"Biking", "doAt", "Central Park"}},
		{{"Feed a Monkey", "doAt", "Bronx Zoo"}},
	}
	qs := make([]PanelQuestion, len(facts))
	for i, fs := range facts {
		qs[i] = PanelQuestion{Facts: fs}
	}
	got := pm.AnswerPanel(qs)
	if len(got) != len(qs) {
		t.Fatalf("AnswerPanel returned %d answers for %d questions", len(got), len(qs))
	}
	for i, fs := range facts {
		if want := sims[0].HowOften(fs); got[i] != want {
			t.Errorf("panel answer %d = %v, HowOften = %v", i, got[i], want)
		}
	}
	already := &panelSim{Member: sims[1]}
	if AdaptMember(already) != PanelMember(already) {
		t.Error("AdaptMember re-wrapped a member that already batches")
	}
}

// respond answers a session question the way member m would.
func respond(m Member, sq SessionQuestion) Response {
	switch sq.Kind {
	case Specialization:
		r := m.Specialize(sq.Choices)
		return Response{Frequency: r.Frequency, Choice: r.Choice, Chosen: r.Chosen, Declined: r.Declined}
	case Pruning:
		if name, ok := m.Irrelevant(sq.Terms); ok {
			for i, term := range sq.Terms {
				if term == name {
					return RespondIrrelevant(i)
				}
			}
		}
		return RespondNoClick()
	default:
		return RespondFrequency(m.HowOften(sq.Facts))
	}
}

// TestSessionPanels drives a step-driven session entirely through
// NextPanels/SubmitPanel and checks the result matches Exec on the same
// domain, query, and crowd, with concrete items primed by priors.
func TestSessionPanels(t *testing.T) {
	db := SampleDB()
	q, err := ParseQuery(figure2)
	if err != nil {
		t.Fatal(err)
	}
	boathouse := WithMoreCandidates(Triple{"Rent Bikes", "doAt", "Boathouse"})
	base, err := Exec(db, q, table3Members(t, db), WithAnswersPerQuestion(2), boathouse)
	if err != nil {
		t.Fatal(err)
	}
	want := renderResult(t, base)

	members := map[string]Member{}
	for _, m := range table3Members(t, db) {
		members[m.ID()] = m
	}
	s, err := NewSession(context.Background(), db, q, []string{"u1", "u2"},
		WithAnswersPerQuestion(2), boathouse,
		WithPanelSize(4))
	if err != nil {
		t.Fatal(err)
	}
	maxPanel := 0
	sawPrior := false
	for ps := s.NextPanels(); len(ps) > 0; ps = s.NextPanels() {
		for _, p := range ps {
			if len(p.Items) > maxPanel {
				maxPanel = len(p.Items)
			}
			answers := make([]PanelAnswer, 0, len(p.Items))
			for _, it := range p.Items {
				if it.Question.Kind == Concrete && it.Prior.Source != "" {
					sawPrior = true
				}
				answers = append(answers, PanelAnswer{
					ID:       it.Question.ID,
					Response: respond(members[it.Question.Member], it.Question),
				})
			}
			if err := s.SubmitPanel(answers); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := renderResult(t, s.Close()); got != want {
		t.Errorf("panel-driven session diverged from Exec:\n--- got\n%s\n--- want\n%s", got, want)
	}
	if maxPanel < 2 {
		t.Errorf("largest panel carried %d item(s); batching never happened", maxPanel)
	}
	if !sawPrior {
		t.Error("no concrete panel item carried a prior")
	}
}

// TestInvalidOptionGoldenErrors pins the exact error text of option
// validation: every out-of-range value matches ErrInvalidOption via
// errors.Is and reports the offending value.
func TestInvalidOptionGoldenErrors(t *testing.T) {
	db := SampleDB()
	q, err := ParseQuery(figure2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opt  Option
		want string
	}{
		{"panel size", WithPanelSize(-1), "oassis: invalid option: panel size -1 (want >= 0)"},
		{"answers per question", WithAnswersPerQuestion(0), "oassis: invalid option: answers per question 0 (want >= 1)"},
		{"specialization ratio", WithSpecializationRatio(1.5), "oassis: invalid option: specialization ratio 1.5 (want within [0, 1])"},
		{"parallelism", WithParallelism(-2), "oassis: invalid option: parallelism -2 (want >= 0)"},
		{"top-k", WithTopK(-1), "oassis: invalid option: top-k -1 (want >= 0)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Exec(db, q, nil, tc.opt)
			if !errors.Is(err, ErrInvalidOption) {
				t.Fatalf("err = %v, want ErrInvalidOption", err)
			}
			if err.Error() != tc.want {
				t.Errorf("error text drifted:\n got  %q\n want %q", err.Error(), tc.want)
			}
			if _, err := NewSession(context.Background(), db, q, nil, tc.opt); !errors.Is(err, ErrInvalidOption) {
				t.Errorf("NewSession err = %v, want ErrInvalidOption", err)
			}
		})
	}
}
