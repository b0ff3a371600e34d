package panel

import (
	"math"

	"oassis/internal/core"
	"oassis/internal/crowd"
)

// Stats reports what panel batching did beyond the run's own statistics:
// how many member round trips the panels cost, how many questions they
// carried, and how the priors fared. The numbers never influence the
// mined result.
type Stats struct {
	// RoundTrips counts panels sent to members — the unit the batching
	// layer optimizes (one panel is one screen, one member round trip).
	RoundTrips int
	// Items counts the questions those panels carried.
	Items int
	// Confirmable counts items carried with a high-confidence prior
	// (rendered as one-tap confirmations).
	Confirmable int
	// Confirms counts confirmable items the member's answer agreed with
	// (within half an answer-scale step of the prior's guess).
	Confirms int
	// Wasted counts answers collected but never consumed by the engine.
	Wasted int
	// MaxInFlight is the peak number of panels concurrently in flight.
	MaxInFlight int
}

// ConfirmRate is the fraction of one-tap confirmations the member agreed
// with (0 when no item was confirmable).
func (st Stats) ConfirmRate() float64 {
	if st.Confirmable == 0 {
		return 0
	}
	return float64(st.Confirms) / float64(st.Confirmable)
}

// outcome is one answered panel coming back from a member.
type outcome struct {
	member string
	items  []Item
	subs   []core.Submission
}

// answerPanel obtains one member's answers to a whole panel: concrete
// items go through crowd.AnswerPanel in one batch (one round-trip latency
// for a Panelist), the blocked question's other kinds through
// core.AnswerFrom.
func answerPanel(m crowd.Member, p Panel) []core.Submission {
	subs := make([]core.Submission, len(p.Items))
	var pqs []crowd.PanelQuestion
	var concrete []int
	for i, it := range p.Items {
		q := it.Question
		if q.Kind != core.KindConcrete {
			subs[i] = core.Submission{ID: q.ID, Answer: core.AnswerFrom(m, q)}
			continue
		}
		pqs = append(pqs, crowd.PanelQuestion{Facts: q.Facts, Prior: it.Prior})
		concrete = append(concrete, i)
	}
	if len(pqs) > 0 {
		sups := crowd.AnswerPanel(m, pqs)
		for j, i := range concrete {
			subs[i] = core.Submission{ID: p.Items[i].Question.ID, Answer: core.AnswerSupport(sups[j])}
		}
	}
	return subs
}

// Run executes the same mining run as core.Run, dispatched: it drives a
// core.Session and, after each Next, cuts panels (Cut over AppendOpen)
// only for the idle members it launches, in the order members first
// surface in Next's list. It keeps at most one panel in flight per member
// and at most parallelism panels in flight overall, answers each panel
// through the member on a worker goroutine (crowd.Panelist members answer
// the whole panel in one round trip), and merges every panel back with
// one SubmitBatch from the dispatching goroutine. It is the one
// concurrent dispatcher: size 1 is one-question dispatch, where
// parallelism bounds the questions in flight. The result is bit-identical
// to core.Run(cfg) for members whose answers depend only on (member,
// question), proven by the equivalence tests in this package; at size 1
// and parallelism 1 only the engine's own next question is ever asked,
// so the question sequence is exactly sequential even for randomized
// members.
//
// Set cfg.PanelSpeculation (typically to size) to fill panels with
// the round node's successor questions; without it panels carry at most
// the round question and the blocked question's mirror.
func Run(cfg core.Config, size, parallelism int) (*core.Result, Stats) {
	if parallelism < 1 {
		parallelism = 1
	}
	byID := make(map[string]crowd.Member, len(cfg.Members))
	ids := make([]string, 0, len(cfg.Members))
	for _, m := range cfg.Members {
		ids = append(ids, m.ID())
		byID[m.ID()] = m
	}
	s := core.NewSession(cfg, ids)

	var st Stats
	results := make(chan outcome, len(ids))
	busy := make(map[string]bool, len(ids))
	inFlight := 0

	launch := func(p Panel) {
		busy[p.Member] = true
		inFlight++
		st.MaxInFlight = max(st.MaxInFlight, inFlight)
		cfg.Metrics.Dispatched(len(p.Items))
		st.RoundTrips++
		st.Items += len(p.Items)
		for _, it := range p.Items {
			if it.Confirm() {
				st.Confirmable++
			}
		}
		m := byID[p.Member]
		go func() {
			results <- outcome{member: p.Member, items: p.Items, subs: answerPanel(m, p)}
		}()
	}

	var open []core.Question
	for {
		qs := s.Next()
		if len(qs) == 0 && inFlight == 0 {
			break
		}
		for _, q := range qs {
			if inFlight >= parallelism {
				break
			}
			if busy[q.Member] {
				continue
			}
			open = s.AppendOpen(open[:0], q.Member)
			launch(Cut(s, q.Member, open, size))
		}
		o := <-results
		busy[o.member] = false
		inFlight--
		for i, it := range o.items {
			if it.Confirm() && math.Abs(o.subs[i].Answer.Support-it.Prior.Support) < 0.125 {
				st.Confirms++
			}
		}
		if s.Done() {
			st.Wasted += len(o.subs) // landed after the run ended
			cfg.Metrics.Wasted(len(o.subs))
			continue
		}
		if err := s.SubmitBatch(o.subs); err != nil {
			st.Wasted++ // a question was consumed another way
			cfg.Metrics.Wasted(1)
		}
	}
	res := s.Close()
	st.Wasted += s.BufferedWaste()
	cfg.Metrics.Wasted(s.BufferedWaste())
	return res, st
}
