package oassis

import (
	"context"
	"slices"

	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/panel"
)

// QuestionID identifies one issued session question.
type QuestionID int64

// QuestionKind enumerates the session question types.
type QuestionKind int

// Session question kinds.
const (
	// Concrete asks how often the member does Facts.
	Concrete QuestionKind = iota
	// Specialization asks the member to pick one of Choices (or reject
	// them all, or decline in favor of concrete questions).
	Specialization
	// Pruning offers the member to mark one of Terms as irrelevant.
	Pruning
)

// SessionQuestion is one independently answerable question surfaced by a
// Session.
type SessionQuestion struct {
	ID     QuestionID
	Member string
	Kind   QuestionKind
	// Facts is the questioned pattern of a Concrete question.
	Facts []Triple
	// Choices holds the candidates of a Specialization question.
	Choices [][]Triple
	// Terms holds the candidate terms of a Pruning question.
	Terms []string
	// Speculative marks a question surfaced ahead of the engine's own
	// request; its answer is buffered, and silently dropped if the run
	// never needs it. The question the engine is blocked on (the first
	// one Next returns) never carries it.
	Speculative bool
}

// Response is the reply to a SessionQuestion. For a Concrete question only
// Frequency is read. For a Specialization question the fields mirror
// SpecializeResponse. For a Pruning question Chosen+Choice clicks the term
// at Choice irrelevant and the zero value clicks nothing.
type Response struct {
	Frequency float64
	Choice    int
	Chosen    bool
	Declined  bool
}

// RespondFrequency answers a Concrete question.
func RespondFrequency(f float64) Response { return Response{Frequency: f} }

// RespondChoice answers a Specialization question by picking candidate idx
// with the given frequency.
func RespondChoice(idx int, f float64) Response {
	return Response{Choice: idx, Frequency: f, Chosen: true}
}

// RespondNoneOfThese rejects every candidate of a Specialization question.
func RespondNoneOfThese() Response { return Response{} }

// RespondDecline asks for concrete questions instead of a Specialization.
func RespondDecline() Response { return Response{Declined: true} }

// RespondIrrelevant answers a Pruning question by clicking the term at idx.
func RespondIrrelevant(idx int) Response { return Response{Choice: idx, Chosen: true} }

// RespondNoClick answers a Pruning question without clicking anything.
func RespondNoClick() Response { return Response{} }

// Session evaluates a query step by step: Next returns every question that
// is currently independently answerable — the one the engine is blocked on
// first, then questions surfaced speculatively for other members — and
// Submit merges an answer back in, in any order. Drive it until Next
// returns no questions, then read the result from Close:
//
//	s, _ := oassis.NewSession(ctx, db, q, []string{"ann", "bob"})
//	for qs := s.Next(); len(qs) > 0; qs = s.Next() {
//	    for _, q := range qs {
//	        s.Submit(q.ID, oassis.RespondFrequency(askHuman(q)))
//	    }
//	}
//	res := s.Close()
//
// A Session is not safe for concurrent use; callers serialize access. When
// ctx is canceled, Next returns no more questions and Close returns the
// partial result.
type Session struct {
	ctx       context.Context
	db        *DB
	all       bool // SELECT ... ALL of the compiled plan
	sp        *assign.Space
	inner     *core.Session
	panelSize int // WithPanelSize; 0 means panel.DefaultSize
}

// NewSession compiles the query and starts a step-driven run over the
// given member IDs. The members themselves are not needed — the caller
// answers the questions, which is the shape a crowdsourcing UI or server
// needs. Options are the same as Exec's (WithParallelism is ignored:
// parallelism is the caller's choice of how many questions to answer
// between Next calls).
func NewSession(ctx context.Context, db *DB, q *Query, memberIDs []string, opts ...Option) (*Session, error) {
	o := options{answersPerQuestion: 1, seed: 1, parallelism: 1}
	for _, opt := range opts {
		opt(&o)
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	pl, sp, cfg, err := compile(db, q, &o)
	if err != nil {
		return nil, err
	}
	cfg.Canceled = func() bool { return ctx.Err() != nil }
	// The run keeps its member IDs; a copy leaves the caller's slice theirs.
	inner := core.NewSession(cfg, slices.Clone(memberIDs))
	return &Session{
		ctx:       ctx,
		db:        db,
		all:       pl.All,
		sp:        sp,
		inner:     inner,
		panelSize: o.panelSize,
	}, nil
}

// Next returns the currently answerable questions, or nothing when the run
// has finished (or the session's context was canceled) and Close holds the
// result. The first question is always the one the run cannot proceed
// without.
func (s *Session) Next() []SessionQuestion {
	if s.ctx.Err() != nil {
		s.inner.Close()
		return nil
	}
	qs := s.inner.Next()
	out := make([]SessionQuestion, 0, len(qs))
	for _, q := range qs {
		out = append(out, convertQuestion(s.db, q))
	}
	return out
}

// convertQuestion maps an engine question to the facade's textual form.
func convertQuestion(db *DB, q core.Question) SessionQuestion {
	sq := SessionQuestion{
		ID:          QuestionID(q.ID),
		Member:      q.Member,
		Speculative: q.Speculative,
	}
	switch q.Kind {
	case core.KindSpecialization:
		sq.Kind = Specialization
		sq.Choices = make([][]Triple, len(q.Choices))
		for i, c := range q.Choices {
			sq.Choices[i] = db.triples(c)
		}
	case core.KindPruning:
		sq.Kind = Pruning
		sq.Terms = make([]string, len(q.Terms))
		for i, t := range q.Terms {
			sq.Terms[i] = db.voc.Name(t)
		}
	default:
		sq.Kind = Concrete
		sq.Facts = db.triples(q.Facts)
	}
	return sq
}

// PanelItem is one question inside a Panel: the question and its prior
// guess.
type PanelItem struct {
	Question SessionQuestion
	Prior    Prior
}

// Confirm reports whether the item renders as a one-tap confirmation
// (high-confidence prior) rather than an open question.
func (it PanelItem) Confirm() bool { return it.Prior.Confirmable() }

// Panel is one member's batch of currently answerable questions in issue
// order (the question the run is blocked on first, when it is the
// member's), primed with priors: one screen, one round trip.
type Panel struct {
	Member string
	Items  []PanelItem
}

// PanelAnswer pairs a panel item's question ID with its response for
// SubmitPanel.
type PanelAnswer struct {
	ID       QuestionID
	Response Response
}

// NextPanels is the batched form of Next: each member's currently
// answerable questions in issue order, cut to the WithPanelSize bound
// (default 8), each item primed with a Prior from the session aggregate,
// or the ontology's shape. The first panel holds the
// question the run cannot proceed without, as its first item. NextPanels
// returns nil exactly when Next would return no questions. Panels and
// single questions can be mixed freely; results are identical either
// way.
func (s *Session) NextPanels() []Panel {
	if s.ctx.Err() != nil {
		s.inner.Close()
		return nil
	}
	ps := panel.Next(s.inner, s.panelSize)
	out := make([]Panel, 0, len(ps))
	for _, p := range ps {
		items := make([]PanelItem, len(p.Items))
		for i, it := range p.Items {
			items[i] = PanelItem{
				Question: convertQuestion(s.db, it.Question),
				Prior:    it.Prior,
			}
		}
		out = append(out, Panel{Member: p.Member, Items: items})
	}
	return out
}

// SubmitPanel merges a whole panel of answers in one call, applying them
// in deterministic (question ID) order — the result is bit-identical to
// submitting each answer individually, in any order. Unknown IDs make it
// report ErrUnknownQuestion after applying the valid answers; answers to
// questions the run has moved past are dropped silently.
func (s *Session) SubmitPanel(answers []PanelAnswer) error {
	if err := s.ctx.Err(); err != nil {
		return err
	}
	// A default-sized panel converts on the stack.
	subs := make([]core.Submission, 0, panel.DefaultSize)
	for _, a := range answers {
		subs = append(subs, core.Submission{ID: core.QuestionID(a.ID), Answer: core.Answer{
			Support:  a.Response.Frequency,
			Choice:   a.Response.Choice,
			Chosen:   a.Response.Chosen,
			Declined: a.Response.Declined,
		}})
	}
	return s.inner.SubmitBatch(subs)
}

// Submit merges the answer to a previously issued question: a panel of
// one. Errors match ErrSessionDone and ErrUnknownQuestion via errors.Is;
// answers to questions the run has moved past are accepted and dropped
// silently.
func (s *Session) Submit(id QuestionID, r Response) error {
	return s.SubmitPanel([]PanelAnswer{{ID: id, Response: r}})
}

// Leave ends a member's participation; the run continues with the rest of
// the crowd.
func (s *Session) Leave(memberID string) { s.inner.Leave(memberID) }

// Done reports whether the run has finished.
func (s *Session) Done() bool { return s.inner.Done() }

// Close ends the run if it is still going and returns the (then possibly
// partial) result.
func (s *Session) Close() *Result {
	res := s.inner.Close()
	return convertResult(s.db, s.all, s.sp, res)
}
