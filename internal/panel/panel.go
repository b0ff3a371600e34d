// Package panel is the batching layer between the step-driven session
// engine and the crowd: it drains every concurrently-askable question
// from core.Session.Next, groups them into per-member panels of bounded
// size, orders the items by a priority score (the paper's smallest-first
// position plus expected information gain), and primes each concrete
// question with a Prior — a best-guess frequency derived from the running
// aggregate, the ontology's shape, or a pluggable PriorSource — so members
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
	"sort"

	"oassis/internal/core"
	"oassis/internal/crowd"
)

// DefaultSize is the panel size bound when Config.Size is zero: one
// phone screen of confirmations.
const DefaultSize = 8

// Config parameterizes a Batcher.
type Config struct {
	// Size bounds the items per panel. 0 means DefaultSize.
	Size int
	// Source supplies the prior guess attached to each question. nil
	// means SessionPriors over the batcher's own session.
	Source PriorSource
}

// PriorSource derives the best-guess prior for a question. Implementations
// must be deterministic for a given session state; they are consulted
// between Next and Submit, while the engine is parked.
type PriorSource interface {
	Prior(q core.Question) crowd.Prior
}

// Item is one question inside a panel: the engine question, the priority
// that ranked it into the panel, and its prior guess.
type Item struct {
	Question core.Question
	// Priority ranked the item within the member's panel (higher is
	// earlier). The engine's blocked question always ranks first.
	Priority float64
	Prior    crowd.Prior
}

// Confirm reports whether the item renders as a one-tap confirmation
// (high-confidence prior) rather than an open question.
func (it Item) Confirm() bool { return it.Prior.Confirmable() }

// Panel is one member's batch of currently answerable questions,
// priority-ordered, at most Config.Size of them.
type Panel struct {
	Member string
	Items  []Item
}

// Batcher groups a session's answerable questions into per-member panels.
// Like the session it wraps, a Batcher is not safe for concurrent use.
type Batcher struct {
	s    *core.Session
	size int
	src  PriorSource
}

// NewBatcher returns a batcher over the session.
func NewBatcher(s *core.Session, cfg Config) *Batcher {
	size := cfg.Size
	if size <= 0 {
		size = DefaultSize
	}
	src := cfg.Source
	if src == nil {
		src = SessionPriors(s)
	}
	return &Batcher{s: s, size: size, src: src}
}

// Session returns the wrapped session (for Close and result access).
func (b *Batcher) Session() *core.Session { return b.s }

// priority scores a speculative question: the paper's smallest-first
// position 1/(1+size) plus expected information gain (a question with
// fewer collected answers moves the aggregate more).
func (b *Batcher) priority(q core.Question) float64 {
	p := 1.0 / float64(1+len(q.Facts))
	if q.Kind == core.KindConcrete {
		_, n := b.s.AggregateHint(q.Facts)
		p += 1.0 / float64(1+n)
	}
	return p
}

// Next drains the session's currently answerable questions and returns
// them as per-member panels: the panel holding the engine's blocked
// question first (it is the only one guaranteed to advance the run, and
// leads its panel regardless of score), the rest in first-surfaced order.
// Within a panel, items are priority-ordered with question IDs breaking
// ties, then truncated to the size bound. Next returns nil exactly when
// the run has finished.
func (b *Batcher) Next() []Panel {
	qs := b.s.Next()
	if len(qs) == 0 {
		return nil
	}
	blocked := qs[0]
	order := []string{blocked.Member}
	byMember := map[string][]Item{}
	for _, q := range qs {
		if _, seen := byMember[q.Member]; !seen && q.Member != blocked.Member {
			order = append(order, q.Member)
		}
		byMember[q.Member] = append(byMember[q.Member], Item{
			Question: q,
			Priority: b.priority(q),
			Prior:    b.src.Prior(q),
		})
	}
	panels := make([]Panel, 0, len(order))
	for _, member := range order {
		items := byMember[member]
		sort.SliceStable(items, func(i, j int) bool {
			qi, qj := items[i].Question, items[j].Question
			if qi.ID == blocked.ID {
				return true
			}
			if qj.ID == blocked.ID {
				return false
			}
			if items[i].Priority != items[j].Priority {
				return items[i].Priority > items[j].Priority
			}
			return qi.ID < qj.ID
		})
		if len(items) > b.size {
			items = items[:b.size]
		}
		panels = append(panels, Panel{Member: member, Items: items})
	}
	return panels
}

// sessionPriors derives priors from the session's own state: the running
// aggregate when it has answers for the question, the ontology's shape
// (pattern size) when it does not.
type sessionPriors struct{ s *core.Session }

// SessionPriors returns the default prior source over a session. Guesses
// come from the running aggregate — the mean of the answers collected so
// far for the same fact-set, in the spirit of worker-weighted
// aggregation — graded Medium with any answer and High with three or
// more (a one-tap confirmation). Without answers the guess falls back to
// the ontology's structure: general patterns (small fact-sets) are
// likelier frequent than specific ones, at Low confidence, so the
// question renders open with the guess merely pre-selected.
func SessionPriors(s *core.Session) PriorSource { return sessionPriors{s: s} }

func (sp sessionPriors) Prior(q core.Question) crowd.Prior {
	if q.Kind != core.KindConcrete {
		return crowd.Prior{}
	}
	mean, n := sp.s.AggregateHint(q.Facts)
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
