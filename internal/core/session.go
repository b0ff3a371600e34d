package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"oassis/internal/fact"
	"oassis/internal/obs"
	"oassis/internal/vocab"
)

// Session errors.
var (
	// ErrSessionDone is returned by Submit after the run has finished.
	ErrSessionDone = errors.New("core: session finished")
	// ErrUnknownQuestion is returned by Submit for an ID the session never
	// issued or has already consumed an answer for.
	ErrUnknownQuestion = errors.New("core: unknown or already answered question")
)

// QuestionID identifies one issued question within a session.
type QuestionID int64

// Question is one independently answerable crowd question surfaced by a
// Session. A concrete question carries Facts; a specialization question
// carries Choices.
type Question struct {
	ID     QuestionID
	Member string
	Kind   QuestionKind
	// Facts is the fact-set whose frequency is asked (concrete question).
	Facts fact.Set
	// Choices holds the candidate fact-sets of a specialization question.
	Choices []fact.Set
	// Terms holds the candidate terms of a user-guided pruning question
	// (the member may mark one as irrelevant to them).
	Terms []vocab.Term
	// Speculative marks a question surfaced ahead of the engine's own
	// request — the current round's node question, or a mirror of the
	// question the engine is blocked on, for a member whose turn has not
	// come yet. Its answer is buffered until the engine asks for it, and
	// is silently discarded if the engine never does. The question the
	// engine is blocked on never carries the flag, even when it was first
	// issued speculatively.
	Speculative bool
}

// Specialization reports whether the question asks to pick a choice.
func (q Question) Specialization() bool { return q.Kind == KindSpecialization }

// Answer is the reply to a Question. For a concrete question only Support
// is read. For a specialization question the fields mirror
// crowd.SpecializeResponse: Chosen+Choice+Support picks a candidate,
// Declined asks for concrete questions instead, and the zero value is
// "none of these". For a pruning question Chosen+Choice marks the term at
// Choice irrelevant and the zero value is "no click".
type Answer struct {
	Support  float64
	Choice   int
	Chosen   bool
	Declined bool
}

// AnswerSupport replies to a concrete question.
func AnswerSupport(s float64) Answer { return Answer{Support: s} }

// AnswerChoice replies to a specialization question by picking candidate
// idx with the given support.
func AnswerChoice(idx int, s float64) Answer {
	return Answer{Choice: idx, Support: s, Chosen: true}
}

// AnswerNoneOfThese rejects every candidate of a specialization question.
func AnswerNoneOfThese() Answer { return Answer{} }

// AnswerDecline asks for concrete questions instead of a specialization.
func AnswerDecline() Answer { return Answer{Declined: true} }

// AnswerIrrelevant replies to a pruning question by marking the term at
// idx irrelevant.
func AnswerIrrelevant(idx int) Answer { return Answer{Choice: idx, Chosen: true} }

// AnswerNoClick replies to a pruning question without marking anything.
func AnswerNoClick() Answer { return Answer{} }

// askKey identifies a question independently of when it is asked, so an
// answer collected early (speculatively) can be merged in when the engine
// reaches the same question: the member's index, the kind, and the
// engine's question id — of a concrete question or of the question a
// pruning offer's terms come from — or, for a specialization, the
// session's id for its candidate list (specIDs).
type askKey struct {
	mi   int32
	q    uint32
	kind QuestionKind
}

// specList is a specialization question's candidate list as question ids
// plus one, zero-padded: a comparable map key.
type specList [maxSpecializationCandidates]uint32

// askKey returns the parked question's ask key.
func (s *Session) askKey(w *want) askKey {
	k := askKey{mi: int32(w.mi), q: w.qid, kind: w.q.Kind}
	if w.q.Kind == KindSpecialization {
		var l specList
		for i, n := range s.eng.at.succs {
			l[i] = s.eng.instantiate(n) + 1
		}
		id, ok := s.specIDs[l]
		if !ok {
			if s.specIDs == nil {
				s.specIDs = make(map[specList]uint32)
			}
			id = uint32(len(s.specIDs))
			s.specIDs[l] = id
		}
		k.q = id
	}
	return k
}

// openMeta is the session's bookkeeping for one issued question, kept
// beside it in the open slab.
type openMeta struct {
	key    askKey
	gen    int32         // round at issue time (speculative retirement)
	live   bool          // not yet answered or retired
	issued time.Duration // issue time, on the session's clock (metrics only)
}

// retiredQ is a question retired unanswered that still takes one late
// answer.
type retiredQ struct {
	id  QuestionID
	key askKey
}

// Session runs the mining engine with inverted, step-driven control: Next
// surfaces every question that is currently independently answerable, and
// Submit merges an answer back in, in any order. The engine is a step
// machine (step.go); the session holds it parked on its next question and
// resumes it when that question's answer arrives. Answers
// submitted ahead of the engine's own order are buffered and merged in
// when the engine reaches them, so results are bit-identical to Run for
// members whose answers depend only on (member, question) — which holds
// for answers ultimately produced by humans or the pure simulated members.
//
//	s := core.NewSession(cfg, []string{"ann", "bob"})
//	for qs := s.Next(); len(qs) > 0; qs = s.Next() {
//	    for _, q := range qs {
//	        s.Submit(q.ID, core.AnswerSupport(askHuman(q)))
//	    }
//	}
//	res := s.Close()
//
// Beyond the one question the engine is blocked on (always first in Next's
// slice), Next speculates: for every member whose turn has not come yet it
// surfaces the current round's node question (the engine is known to ask
// it unless the node classifies first) and a mirror of the engine's
// blocked concrete question (members who share habits descend the same
// specialization chains, so the buffered mirrors serve their chains
// without a round trip). Speculative answers the round outruns are retired
// without ever entering the run's statistics.
//
// A Session is not safe for concurrent use; callers serialize access (the
// panel dispatcher drives one session from one goroutine and fans
// questions out from there). Between calls it is plain data: no goroutine
// runs on its behalf.
type Session struct {
	eng *engine

	// The issued questions in ID order, as one value slab beside their
	// bookkeeping; dead ones wait for Next to compact them away.
	open     []Question
	meta     []openMeta
	byKey    map[askKey]QuestionID // the live questions
	buffered map[askKey]Answer
	retired  []retiredQ          // in ID order; late answers are still buffered once
	specIDs  map[specList]uint32 // specialization candidate lists seen, by ask-key id
	blocked  int                 // index in open of the engine's question, -1 when none
	dead     int                 // answered or retired questions still in open
	nextID   QuestionID          // IDs start at 1, so 0 never names a question

	view      []Question // Next's result, reused from call to call
	specRound int        // the round of the last Next

	// Observability (nil/zero when neither metrics nor tracer is
	// attached). With metrics, each question's issue time is an offset
	// from born on the monotonic clock, kept in its openMeta; spanEnd,
	// keyed by question ID, exists only with a tracer. Recording is
	// write-only w.r.t. the engine, so instrumented runs stay
	// bit-identical to uninstrumented ones.
	metrics *Metrics
	tracer  obs.Tracer
	born    time.Time
	spanEnd map[QuestionID]func()

	res    *Result // set when the run finishes
	closed bool
}

// NewSession starts the engine over the given member IDs and runs it to
// its first question. cfg.Members is ignored: the caller answers.
func NewSession(cfg Config, memberIDs []string) *Session {
	s := &Session{
		byKey:    make(map[askKey]QuestionID),
		buffered: make(map[askKey]Answer),
		blocked:  -1,
		nextID:   1,
		metrics:  cfg.Metrics,
		tracer:   cfg.Tracer,
	}
	if s.metrics != nil {
		s.born = time.Now()
	}
	if s.tracer != nil {
		s.spanEnd = make(map[QuestionID]func())
	}
	cfg.Members = nil
	s.eng = newEngine(cfg, append([]string(nil), memberIDs...))
	s.eng.seed()
	s.advance()
	return s
}

// advance runs the engine to its next unanswered question, serving
// buffered answers along the way. On return either s.blocked is the
// question the engine is parked on or the run has finished.
func (s *Session) advance() {
	for {
		w := s.eng.run()
		if w == nil {
			s.finish()
			return
		}
		k := s.askKey(w)
		if a, ok := s.buffered[k]; ok {
			// An answer collected earlier merges in at the engine's own
			// position in the question order.
			delete(s.buffered, k)
			s.eng.answer(a)
			continue
		}
		if id, ok := s.byKey[k]; ok {
			// A speculative question already issued for exactly this ask:
			// adopt it, keeping its ID. It is the engine's own question
			// now, so it no longer reads as speculative.
			s.blocked = s.find(id)
			s.open[s.blocked].Speculative = false
			return
		}
		s.blocked = s.issue(k, w.q, false)
		return
	}
}

// finish records the result and retires whatever is still open: it can
// never be consumed. A late answer to a question retired by the run's end
// is still accepted (and dropped); after Close it is ErrSessionDone.
func (s *Session) finish() {
	s.res = s.eng.result()
	s.blocked = -1
	s.view = nil
	for i := range s.meta {
		if s.meta[i].live {
			s.retire(i)
		}
	}
	s.open, s.meta, s.dead = nil, nil, 0
}

// retire closes the live open question i unanswered. Until Close its ID
// still takes one late answer (never re-ask a human); Next no longer
// surfaces it. Retirement mostly follows issue order, so the ID-ordered
// insert is nearly always an append.
func (s *Session) retire(i int) {
	if !s.closed {
		r := retiredQ{id: s.open[i].ID, key: s.meta[i].key}
		if n := len(s.retired); n == 0 || s.retired[n-1].id < r.id {
			s.retired = append(s.retired, r)
		} else {
			j, _ := s.retiredAt(r.id)
			s.retired = slices.Insert(s.retired, j, r)
		}
	}
	s.drop(i, false)
}

// retiredAt returns where id is, or would be, in the retired list, and
// whether it is there.
func (s *Session) retiredAt(id QuestionID) (int, bool) {
	return slices.BinarySearchFunc(s.retired, id, func(r retiredQ, id QuestionID) int {
		return cmp.Compare(r.id, id)
	})
}

// issue opens a question under a fresh ID and returns its index in open.
func (s *Session) issue(k askKey, q Question, speculative bool) int {
	q.ID = s.nextID
	q.Speculative = speculative
	s.nextID++
	s.open = append(s.open, q)
	s.meta = append(s.meta, openMeta{key: k, gen: int32(s.eng.at.round), live: true})
	s.byKey[k] = q.ID
	s.noteIssued(&q, &s.meta[len(s.meta)-1])
	return len(s.open) - 1
}

// noteIssued books a freshly issued question with the attached metrics and
// tracer. With neither attached it does nothing at all (not even a clock
// read).
func (s *Session) noteIssued(q *Question, m *openMeta) {
	if s.metrics != nil {
		s.metrics.questionIssued(q.Kind, q.Speculative)
		m.issued = time.Since(s.born)
	}
	if s.tracer != nil {
		phase := "blocked"
		if q.Speculative {
			phase = "speculative"
		}
		s.spanEnd[q.ID] = s.tracer.Begin("question",
			obs.A("id", strID(q.ID)), obs.A("member", q.Member),
			obs.A("kind", q.Kind.String()), obs.A("phase", phase))
	}
}

// drop marks the live open question i dead and frees its ask key; the
// attached metrics and tracer book it answered (with its latency) or
// retired.
func (s *Session) drop(i int, answered bool) {
	m := &s.meta[i]
	m.live = false
	s.dead++
	delete(s.byKey, m.key)
	if s.metrics != nil {
		if answered {
			s.metrics.questionAnswered(m.key.kind, time.Since(s.born)-m.issued)
		} else {
			s.metrics.questionRetired()
		}
	}
	if s.tracer != nil {
		id := s.open[i].ID
		if end, ok := s.spanEnd[id]; ok {
			end()
			delete(s.spanEnd, id)
		}
	}
}

// compact drops dead questions from the open slab. On the round's first
// Next (newRound) it first retires, in ID order, the speculative questions
// from rounds the engine has moved past; later Nexts of the round would
// find none, since every question issued since carries the round. Then
// each run of live questions moves down with one copy.
func (s *Session) compact(newRound bool) {
	b := s.blocked
	if newRound {
		round := s.eng.at.round
		for i := range s.meta {
			if m := &s.meta[i]; m.live && i != b && m.gen != int32(round) && s.open[i].Speculative {
				s.retire(i)
			}
		}
	}
	if s.dead == 0 {
		return
	}
	n := 0
	for i := 0; i < len(s.meta); {
		j := i // the live run open[i:j], then the dead question at j
		for j < len(s.meta) && s.meta[j].live {
			j++
		}
		if i <= b && b < j {
			s.blocked = n + b - i
		}
		copy(s.open[n:], s.open[i:j])
		copy(s.meta[n:], s.meta[i:j])
		n += j - i
		i = j + 1
	}
	clear(s.open[n:])
	s.open, s.meta, s.dead = s.open[:n], s.meta[:n], 0
}

// speculateOn opens a speculative concrete question qid for member idx if
// the engine could still ask it of them: active, with budget, and without
// a cached, primed, or pruning-implied answer — and the question is not
// already open or buffered for them.
func (s *Session) speculateOn(idx int, qid uint32) {
	e := s.eng
	q := &e.qs.all[qid]
	_, cached := q.support(idx)
	if !e.memberActive(idx) || e.budgets[idx] == 0 || cached || e.pruneHit(idx, q.fs) {
		return
	}
	if _, ok := e.primed(qid, idx); ok {
		return
	}
	k := askKey{mi: int32(idx), q: qid, kind: KindConcrete}
	if _, buf := s.buffered[k]; buf {
		return
	}
	if _, open := s.byKey[k]; open {
		return
	}
	s.issue(k, Question{Member: e.ids[idx], Kind: KindConcrete, Facts: q.fs}, true)
}

// speculate issues questions the engine has not asked yet but is likely
// to, for members whose turn has not come in the current round:
//
//   - the round's node question — the engine asks it of every member in
//     turn unless the node classifies first; and
//   - a mirror of the question the engine is currently blocked on (when it
//     is a deeper, concrete descent question): members with similar habits
//     descend the same chains, so their buffered answers serve whole
//     chains without a round trip when their turns come.
//
// Only members the engine would actually ask are considered, and answers
// the engine never consumes are discarded without entering the statistics
// — so speculation affects wall clock and waste, never the result.
//
// The node question is offered on the round's first call only
// (offerNode). Every reason speculateOn skips a member is monotone within
// a round — cached or buffered (a buffered answer is consumed into the
// cache), left or banned, budget spent or pruning-implied, primed, or
// already open — and a later call's members are a subset of the first
// call's, since the turn only moves forward; compact retires only earlier
// rounds' questions. So a repeat offer could never issue anything. The mirror follows the
// blocked question and is offered on every call.
func (s *Session) speculate(offerNode bool) {
	c := &s.eng.at
	qid := s.eng.instantiate(c.node)
	b := s.meta[s.blocked].key
	mirror := b.kind == KindConcrete && b.q != qid
	for i := c.turn + 1; i < len(s.eng.ids); i++ {
		if offerNode {
			s.speculateOn(i, qid)
		}
		if mirror {
			s.speculateOn(i, b.q)
		}
	}
	s.speculateSuccessors()
}

// speculateSuccessors widens speculation for panel batching (see
// Config.PanelSpeculation): it surfaces up to PanelSpeculation immediate
// successors of the round's node — the questions the descent asks next
// when a member's answer reaches the threshold — for the blocked member
// and every member after them in the round. A panel then carries a whole
// descent chain's first level in one round trip; answers the engine never
// asks for are retired by the usual machinery without touching the
// result.
func (s *Session) speculateSuccessors() {
	e := s.eng
	n := e.cfg.PanelSpeculation
	if n <= 0 {
		return
	}
	succs := e.succsOf(e.at.node)
	if len(succs) > n {
		succs = succs[:n]
	}
	from := e.at.turn
	if from < 0 {
		from = 0
	}
	for _, succ := range succs {
		qid := e.instantiate(succ)
		for i := from; i < len(e.ids); i++ {
			s.speculateOn(i, qid)
		}
	}
}

// Next returns every question that can be answered right now: the one the
// engine is blocked on (always first), followed by the open speculative
// questions in issue order. It returns nil exactly when the run has
// finished and Close/Result hold the outcome.
//
// The returned slice is the session's own view, reused by the next call to
// Next: it stays valid until then. Submit, SubmitBatch, AppendOpen and
// Lookup never write to it, so answering the questions of one Next in a
// loop is safe; a caller that keeps questions across Nexts copies them, or
// calls AppendNext with a buffer of its own.
func (s *Session) Next() []Question {
	if s.res != nil || s.closed {
		return nil
	}
	s.view = s.AppendNext(s.view[:0])
	return s.view
}

// AppendNext is Next in append form: it retires stale speculation,
// speculates, and appends every question answerable right now to dst —
// the blocked one first, then the open speculative ones in issue order —
// returning the extended slice. It leaves Next's view alone. Once the run
// has finished it returns dst unchanged.
func (s *Session) AppendNext(dst []Question) []Question {
	if s.res != nil || s.closed {
		return dst
	}
	round := s.eng.at.round
	newRound := s.specRound != round
	s.specRound = round
	s.compact(newRound)
	s.speculate(newRound)
	b := s.blocked // every open question is live: copy the runs around it
	dst = slices.Grow(dst, len(s.open))
	dst = append(dst, s.open[b])
	dst = append(dst, s.open[:b]...)
	return append(dst, s.open[b+1:]...)
}

// AppendOpen appends the member's open questions to dst and returns the
// extended slice: the engine's blocked question first when it is theirs,
// then the rest in ID order. Unlike Next it neither speculates nor
// retires, so readers may call it as often as they like between Nexts; nor
// does it touch Next's view.
func (s *Session) AppendOpen(dst []Question, member string) []Question {
	if s.res != nil || s.closed {
		return dst
	}
	if b := s.blocked; b >= 0 && s.open[b].Member == member {
		dst = append(dst, s.open[b])
	}
	for i := range s.open {
		if s.meta[i].live && i != s.blocked && s.open[i].Member == member {
			dst = append(dst, s.open[i])
		}
	}
	return dst
}

// Lookup returns the question Submit would still accept under id: an open
// one in full, or a retired one still awaiting its one late answer, of
// which only ID, Member and Kind survive.
func (s *Session) Lookup(id QuestionID) (Question, bool) {
	if i, ok := s.retiredAt(id); ok {
		k := s.retired[i].key
		return Question{ID: id, Member: s.eng.ids[k.mi], Kind: k.kind}, true
	}
	if s.res != nil || s.closed {
		return Question{}, false
	}
	if i := s.find(id); i >= 0 {
		return s.open[i], true
	}
	return Question{}, false
}

// find returns the index of the live open question id, or -1.
func (s *Session) find(id QuestionID) int {
	i := sort.Search(len(s.open), func(i int) bool { return s.open[i].ID >= id })
	if i == len(s.open) || s.open[i].ID != id || !s.meta[i].live {
		return -1
	}
	return i
}

// Submit merges the answer to a previously issued question. Answering the
// engine's blocked question resumes it and advances the run to its next
// question; answering a speculative question buffers the answer until the
// engine reaches it. Answers to retired questions are buffered too —
// a collected human answer is never thrown away while the question could
// still be asked — and are discarded only if the run never needs them.
func (s *Session) Submit(id QuestionID, a Answer) error {
	if j, ok := s.retiredAt(id); ok {
		key := s.retired[j].key
		s.retired = slices.Delete(s.retired, j, j+1)
		if s.res == nil {
			s.buffered[key] = a
		}
		return nil
	}
	if s.res != nil || s.closed {
		return ErrSessionDone
	}
	i := s.find(id)
	if i < 0 {
		return fmt.Errorf("%w: id %d", ErrUnknownQuestion, id)
	}
	s.drop(i, true)
	key := s.meta[i].key
	blocked := i == s.blocked
	if i == len(s.open)-1 { // the newest, always under Run, which never calls Next
		s.open, s.meta, s.dead = s.open[:i], s.meta[:i], s.dead-1
	}
	if blocked {
		s.blocked = -1
		s.eng.answer(a)
		s.advance()
		return nil
	}
	s.buffered[key] = a
	return nil
}

// Submission pairs a question ID with its answer for SubmitBatch.
type Submission struct {
	ID     QuestionID
	Answer Answer
}

// SubmitBatch merges a whole panel of answers in one call, applying them
// in ascending question-ID order regardless of the order given — the
// deterministic order that makes batched submission bit-identical to
// per-question submission: answers ahead of the engine's own position are
// buffered by ask key exactly as individual Submits would buffer them,
// and merged in when the engine reaches the same question. The first
// submission error is returned after every submission was attempted.
func (s *Session) SubmitBatch(subs []Submission) error {
	if !slices.IsSortedFunc(subs, bySubmissionID) {
		// Only an out-of-order batch pays for the copy; a single answer
		// or an issue-order panel is applied in place.
		subs = slices.Clone(subs)
		slices.SortStableFunc(subs, bySubmissionID)
	}
	var first error
	for _, sub := range subs {
		if err := s.Submit(sub.ID, sub.Answer); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func bySubmissionID(a, b Submission) int { return cmp.Compare(a.ID, b.ID) }

// AggregateHint exposes the running aggregate for a concrete question's
// fact-set: the mean of the answers collected so far and how many there
// are. It is how panel.Prior derives best guesses from the crowd state
// without reaching into the engine.
func (s *Session) AggregateHint(fs fact.Set) (mean float64, answers int) {
	if !fs.IsCanon() {
		fs = fs.Canon()
	}
	qs := &s.eng.qs
	id, _, ok := qs.lookup(fs)
	if !ok {
		return 0, 0
	}
	q := &qs.all[id]
	return q.mean(), len(q.answers)
}

// Leave ends a member's participation: the engine stops asking them, their
// open questions are retired, and one the engine is parked on is answered
// on their behalf — support 0 for a concrete question (a harmless
// one-answer bias the aggregator absorbs), a decline for a
// specialization, no click for a pruning offer.
func (s *Session) Leave(memberID string) {
	e := s.eng
	for i, id := range e.ids {
		if id != memberID || e.left[i] {
			continue
		}
		e.left[i] = true
		for j := range s.meta {
			if s.meta[j].live && s.meta[j].key.mi == int32(i) {
				s.retire(j)
			}
		}
		if b := s.blocked; b >= 0 && !s.meta[b].live {
			s.blocked = -1
			s.advance()
		}
		return
	}
}

// Done reports whether the run has finished and Result is available.
func (s *Session) Done() bool { return s.res != nil }

// BufferedWaste reports the answers collected speculatively that are
// still buffered without the engine ever consuming them — the waste
// accounting dispatchers read after Close.
func (s *Session) BufferedWaste() int { return len(s.buffered) }

// Result returns the outcome, or nil while the run is still going.
func (s *Session) Result() *Result { return s.res }

// Close cancels the run if it is still going, winds the engine down, and
// returns the (possibly partial) result. Closing an already finished
// session just returns the result. Retired questions stop taking their
// late answer: after Close every Submit is ErrSessionDone.
func (s *Session) Close() *Result {
	s.closed = true
	s.retired = nil
	if s.res == nil {
		// Canceled, every question point resolves on the spot, so the
		// engine runs straight to its end.
		s.eng.aborted = true
		s.eng.run()
		s.finish()
	}
	return s.res
}
