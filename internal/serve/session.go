package serve

import (
	"fmt"
	"log"
	"slices"

	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/oassisql"
	"oassis/internal/panel"
	"oassis/internal/plan"
	"oassis/internal/store"
)

// maxPanel bounds the items a panel poll may ask for, and so the
// admission slots one request can charge.
const maxPanel = 16

// logf reports a non-fatal serving-tier fault (journal write failures,
// late submits); the tier keeps serving, matching the single-session
// server's behavior.
func logf(format string, args ...interface{}) { log.Printf(format, args...) }

// Session is one hosted mining session: a core.Session, its compiled
// plan, and (optionally) its WAL store. The core.Session is the one record
// of which questions are open; the serving tier reads it and keeps only a
// watermark of the question IDs it has already published. Mutable state
// is guarded by the owning shard's mutex; the exported methods take it,
// the *Locked methods expect it held.
type Session struct {
	id    string
	t     *Tenant
	sh    *shard
	query *oassisql.Query
	plan  *plan.Plan
	sp    *assign.Space
	inner *core.Session
	st    *store.Store // nil for an in-memory tenant

	// Guarded by sh.mu.
	seen     core.QuestionID // highest question ID published to the ready lists
	finished bool
	result   *core.Result
}

// ID returns the session's tenant-unique identifier.
func (s *Session) ID() string { return s.id }

// Query returns the session's parsed query.
func (s *Session) Query() *oassisql.Query { return s.query }

// Plan returns the compiled (shared, content-addressed) plan.
func (s *Session) Plan() *plan.Plan { return s.plan }

// Space returns the session's assignment space (for formatting results).
func (s *Session) Space() *assign.Space { return s.sp }

// Shard returns the index of the shard the session routed to.
func (s *Session) Shard() int { return s.sh.idx }

// Done reports whether the session has finished mining. Every mutation
// (attach, SubmitPanel, Retire) settles the flag, so reading it neither
// refills nor allocates.
func (s *Session) Done() bool {
	s.sh.mu.Lock()
	defer s.sh.mu.Unlock()
	return s.finished
}

// Result returns the mined result once the session has finished
// (nil, false before that).
func (s *Session) Result() (*core.Result, bool) {
	s.sh.mu.Lock()
	defer s.sh.mu.Unlock()
	return s.result, s.result != nil
}

// takesLocked reports whether the session would still take the member's
// answer to question id: open, or retired after it was handed out and
// still awaiting its one late answer. Caller holds sh.mu.
func (s *Session) takesLocked(member string, id int) bool {
	if s.finished {
		return false
	}
	q, ok := s.inner.Lookup(core.QuestionID(id))
	return ok && q.Member == member
}

// PanelAnswer answers one panel item by its question ID.
type PanelAnswer struct {
	ID     int
	Answer core.Answer
}

// SubmitPanel answers several of the member's questions at once — the one
// answer path: a single answer is a panel of one. Every matched item is
// credited, and the whole batch feeds the engine through one
// deterministic SubmitBatch — one lock acquisition, one refill, one
// waiter broadcast for the entire panel. An answer to a question the
// engine retired after it was handed out is buffered or dropped by the
// session; the member's credit stands either way. Unmatched IDs (already
// answered, session moved on) and repeats are skipped; a panel matching
// nothing is ErrNoPending. Returns the applied count.
func (s *Session) SubmitPanel(member string, answers []PanelAnswer) (int, error) {
	s.sh.mu.Lock()
	defer s.sh.mu.Unlock()
	subs := make([]core.Submission, 0, maxPanel) // on the stack up to maxPanel items
	for _, a := range answers {
		id := core.QuestionID(a.ID)
		if !s.takesLocked(member, a.ID) ||
			slices.ContainsFunc(subs, func(sub core.Submission) bool { return sub.ID == id }) {
			continue
		}
		s.t.credit(member)
		subs = append(subs, core.Submission{ID: id, Answer: a.Answer})
	}
	if len(subs) == 0 {
		return 0, fmt.Errorf("%w: no panel item matched for member %q in session %s", ErrNoPending, member, s.id)
	}
	if err := s.inner.SubmitBatch(subs); err != nil {
		logf("serve: %s/%s panel submit: %v", s.t.name, s.id, err)
	}
	s.refillLocked()
	return len(subs), nil
}

// refillLocked lets the engine speculate and retire, then publishes the
// questions it issued since the last refill: each queues the session on
// its member's ready list unless an older open question of theirs
// already did. Pollers wake on any new question. The open list is read
// into the shard's scratch buffer, shared with take, so a hosted session
// keeps no question view of its own. Caller holds sh.mu.
func (s *Session) refillLocked() {
	if s.finished {
		return
	}
	if s.inner.Done() {
		s.finished = true
		s.result = s.inner.Result()
		// Ready-queue entries are dropped lazily on take.
		s.sh.obs.live.Dec()
		s.t.sessionFinished()
		return
	}
	s.sh.open = s.inner.AppendNext(s.sh.open[:0])
	qs := s.sh.open
	seen := s.seen
	for _, q := range qs {
		if q.ID <= seen {
			continue
		}
		s.seen = max(s.seen, q.ID)
		if !olderOpen(qs, q) {
			s.sh.ready[q.Member] = append(s.sh.ready[q.Member], s)
		}
	}
	if s.seen > seen {
		s.t.broadcast()
	}
}

// olderOpen reports whether qs holds an open question of q's member issued
// before q. The session joined that member's ready list with their oldest
// open question, and a take drops it only once none is open.
func olderOpen(qs []core.Question, q core.Question) bool {
	for _, o := range qs {
		if o.Member == q.Member && o.ID < q.ID {
			return true
		}
	}
	return false
}

// wireQuestion builds the serving-tier view of an engine question.
func (s *Session) wireQuestion(q core.Question) Question {
	return Question{
		Tenant:      s.t.name,
		Session:     s.id,
		ID:          int(q.ID),
		Member:      q.Member,
		Kind:        q.Kind,
		Facts:       q.Facts,
		Choices:     q.Choices,
		Terms:       q.Terms,
		Speculative: q.Speculative,
	}
}

// wirePanel cuts the member's panel from their open questions with
// panel.Cut (up to max items, each carrying its prior) and maps it to the
// wire form. The items stay open (a re-poll resends the panel, with
// priors recomputed); answering them is what consumes them. Caller holds
// sh.mu.
func (s *Session) wirePanel(member string, open []core.Question, max int) Panel {
	cut := panel.Cut(s.inner, member, open, max)
	p := Panel{Tenant: s.t.name, Session: s.id, Member: member, Items: make([]PanelItem, len(cut.Items))}
	for i, it := range cut.Items {
		p.Items[i] = PanelItem{Question: s.wireQuestion(it.Question), Prior: it.Prior, Confirm: it.Confirm()}
	}
	return p
}
