// Package panel is the batching layer between the step-driven session
// engine and the crowd. It has one panel rule: a member's panel is their
// open questions as core.Session.AppendOpen orders them (the engine's
// blocked question first, then issue order), cut to a size bound, with
// each concrete question primed with a Prior — a best-guess frequency
// derived from the running aggregate or the ontology's shape — so members
// confirm cheap guesses instead of answering from scratch, one screen per
// round trip.
//
// Batching never changes the mined result: panel answers are submitted
// through core.Session.SubmitBatch, which applies them in deterministic
// (question-ID) order, and answers ahead of the engine's own position are
// buffered by ask key exactly as individual submits would be. The
// equivalence tests in this package prove bit-identical results against
// sequential per-question execution across domains, panel sizes, and
// dispatch parallelism.
package panel

import (
	"slices"

	"oassis/internal/core"
	"oassis/internal/crowd"
)

// DefaultSize is the panel size bound Cut, Next and Run use for a size
// of zero: one phone screen of confirmations.
const DefaultSize = 8

// Item is one question inside a panel: the engine question and its prior
// guess.
type Item struct {
	Question core.Question
	Prior    crowd.Prior
}

// Confirm reports whether the item renders as a one-tap confirmation
// (high-confidence prior) rather than an open question.
func (it Item) Confirm() bool { return it.Prior.Confirmable() }

// Panel is one member's batch of currently answerable questions in
// AppendOpen order, at most the size bound of them.
type Panel struct {
	Member string
	Items  []Item
}

// Cut builds the member's panel from their open questions in s (as
// core.Session.AppendOpen returns them): the first size of them
// (DefaultSize of them for a size of zero), each primed by Prior. Priors are
// computed at cut time, so answers collected since a question was issued
// upgrade its guess. The panel does not alias open.
func Cut(s *core.Session, member string, open []core.Question, size int) Panel {
	if size <= 0 {
		size = DefaultSize
	}
	open = open[:min(len(open), size)]
	p := Panel{Member: member, Items: make([]Item, len(open))}
	for i, q := range open {
		p.Items[i] = Item{Question: q, Prior: Prior(s, q)}
	}
	return p
}

// Next advances the session (one core.Session.Next) and returns every
// member's panel of at most size items, in the order the members first
// surface in Next's list: the panel holding the engine's blocked question
// first. Next returns nil exactly when the run has finished.
func Next(s *core.Session, size int) []Panel {
	var panels []Panel
	var open []core.Question
	for _, q := range s.Next() {
		if slices.ContainsFunc(panels, func(p Panel) bool { return p.Member == q.Member }) {
			continue
		}
		open = s.AppendOpen(open[:0], q.Member)
		panels = append(panels, Cut(s, q.Member, open, size))
	}
	return panels
}

// Prior derives the best-guess prior for q from the session's own state.
// Guesses come from the running aggregate — the mean of the answers
// collected so far for the same fact-set, in the spirit of
// worker-weighted aggregation — graded Medium with any answer and High
// with three or more (a one-tap confirmation). Without answers the guess
// falls back to the ontology's structure: general patterns (small
// fact-sets) are likelier frequent than specific ones, at Low confidence,
// so the question renders open with the guess merely pre-selected. Only
// concrete questions get a guess.
func Prior(s *core.Session, q core.Question) crowd.Prior {
	if q.Kind != core.KindConcrete {
		return crowd.Prior{}
	}
	mean, n := s.AggregateHint(q.Facts)
	switch {
	case n >= 3:
		return crowd.Prior{Support: mean, Confidence: crowd.ConfidenceHigh, Source: "aggregate"}
	case n >= 1:
		return crowd.Prior{Support: mean, Confidence: crowd.ConfidenceMedium, Source: "aggregate"}
	}
	return crowd.Prior{
		Support:    1.0 / float64(1+len(q.Facts)),
		Confidence: crowd.ConfidenceLow,
		Source:     "ontology",
	}
}
