package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
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
// reaches the same question.
type askKey struct {
	member string
	kind   QuestionKind
	key    string
}

// askKey returns the parked question's ask key.
func (w *want) askKey() askKey {
	k := askKey{member: w.q.Member, kind: w.q.Kind, key: w.qKey}
	switch w.q.Kind {
	case KindSpecialization:
		k.key = specKey(w.q.Choices)
	case KindPruning:
		k.key = pruneKey(w.q.Terms)
	}
	return k
}

// instance is one issued Question awaiting its answer.
type instance struct {
	q    Question // carries the ID and the speculative flag
	key  askKey
	gen  int  // round at issue time (speculative retirement)
	live bool // not yet answered or retired
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

	open     []*instance          // issued, in ID order; dead ones wait for Next
	byKey    map[askKey]*instance // the live instances
	buffered map[askKey]Answer
	retired  map[QuestionID]askKey // late answers are still buffered once
	blocked  *instance
	nextID   QuestionID // IDs start at 1, so 0 never names a question

	view      []Question // Next's result, reused from call to call
	specRound int        // the round whose node question was last offered

	// Observability (nil/empty when neither metrics nor tracer is
	// attached). issuedAt and spanEnd are keyed by question ID; recording
	// is write-only w.r.t. the engine, so instrumented runs stay
	// bit-identical to uninstrumented ones.
	metrics  *Metrics
	tracer   obs.Tracer
	issuedAt map[QuestionID]time.Time
	spanEnd  map[QuestionID]func()

	res    *Result // set when the run finishes
	closed bool
}

// NewSession starts the engine over the given member IDs and runs it to
// its first question. cfg.Members is ignored: the caller answers.
func NewSession(cfg Config, memberIDs []string) *Session {
	s := &Session{
		byKey:    make(map[askKey]*instance),
		buffered: make(map[askKey]Answer),
		retired:  make(map[QuestionID]askKey),
		nextID:   1,
		metrics:  cfg.Metrics,
		tracer:   cfg.Tracer,
	}
	if s.metrics != nil || s.tracer != nil {
		s.issuedAt = make(map[QuestionID]time.Time)
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
		k := w.askKey()
		if a, ok := s.buffered[k]; ok {
			// An answer collected earlier merges in at the engine's own
			// position in the question order.
			delete(s.buffered, k)
			s.eng.answer(a)
			continue
		}
		if inst, ok := s.byKey[k]; ok {
			// A speculative question already issued for exactly this ask:
			// adopt it, keeping its ID. It is the engine's own question
			// now, so it no longer reads as speculative.
			inst.q.Speculative = false
			s.blocked = inst
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
	s.blocked = nil
	s.view = nil
	for _, inst := range s.open {
		if inst.live {
			s.retire(inst)
		}
	}
	s.open = nil
}

// retire closes a live instance unanswered. Until Close its ID still takes
// one late answer (never re-ask a human); Next no longer surfaces it.
func (s *Session) retire(inst *instance) {
	if !s.closed {
		s.retired[inst.q.ID] = inst.key
	}
	s.drop(inst, false)
}

// issue opens a question instance under a fresh ID.
func (s *Session) issue(k askKey, q Question, speculative bool) *instance {
	q.ID = s.nextID
	q.Speculative = speculative
	s.nextID++
	inst := &instance{q: q, key: k, gen: s.eng.at.round, live: true}
	s.open = append(s.open, inst)
	s.byKey[k] = inst
	s.noteIssued(inst)
	return inst
}

// noteIssued books a freshly issued question instance with the attached
// metrics and tracer. With neither attached it does nothing at all (not
// even a clock read).
func (s *Session) noteIssued(inst *instance) {
	if s.metrics == nil && s.tracer == nil {
		return
	}
	s.metrics.questionIssued(inst.key.kind, inst.q.Speculative)
	if s.metrics != nil {
		s.issuedAt[inst.q.ID] = time.Now()
	}
	if s.tracer != nil {
		phase := "blocked"
		if inst.q.Speculative {
			phase = "speculative"
		}
		s.spanEnd[inst.q.ID] = s.tracer.Begin("question",
			obs.A("id", strID(inst.q.ID)), obs.A("member", inst.key.member),
			obs.A("kind", inst.key.kind.String()), obs.A("phase", phase))
	}
}

// drop marks a live instance dead and frees its ask key; the attached
// metrics and tracer book it answered (with its latency) or retired.
func (s *Session) drop(inst *instance, answered bool) {
	inst.live = false
	delete(s.byKey, inst.key)
	if s.metrics == nil && s.tracer == nil {
		return
	}
	id := inst.q.ID
	if answered {
		s.metrics.questionAnswered(inst.key.kind, s.issuedAt[id])
	} else {
		s.metrics.questionRetired()
	}
	delete(s.issuedAt, id)
	if end, ok := s.spanEnd[id]; ok {
		end()
		delete(s.spanEnd, id)
	}
}

// compact drops dead instances from the open list in place, retiring on
// the way, in ID order, the speculative questions from rounds the engine
// has moved past.
func (s *Session) compact() {
	kept := s.open[:0]
	for _, inst := range s.open {
		if inst.live && inst.q.Speculative && inst != s.blocked && inst.gen != s.eng.at.round {
			s.retire(inst)
		}
		if inst.live {
			kept = append(kept, inst)
		}
	}
	clear(s.open[len(kept):])
	s.open = kept
}

// speculateOn opens a speculative concrete question (key, fs) for member
// idx if the engine could still ask it of them: active, with budget, and
// without a cached, primed, or pruning-implied answer — and the question
// is not already open or buffered for them.
func (s *Session) speculateOn(idx int, key string, fs fact.Set) {
	e := s.eng
	id := e.ids[idx]
	_, cached := e.cache.Lookup(key, id)
	if !e.memberActive(idx) || e.budgets[idx] == 0 || cached || e.pruneHit(id, fs) {
		return
	}
	if e.cfg.Prime != nil {
		if _, ok := e.cfg.Prime.Lookup(key, id); ok {
			return
		}
	}
	k := askKey{member: id, kind: KindConcrete, key: key}
	if _, buf := s.buffered[k]; buf || s.byKey[k] != nil {
		return
	}
	s.issue(k, Question{Member: id, Kind: KindConcrete, Facts: fs}, true)
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
// The node question is offered on the round's first call only. Every
// reason speculateOn skips a member is monotone within a round — cached
// or buffered (a buffered answer is consumed into the cache), left or
// banned, budget spent or pruning-implied, primed, or already open — and
// a later call's members are a subset of the first call's, since the turn
// only moves forward; compact retires only earlier rounds' questions. So
// a repeat offer could never issue anything. The mirror follows the
// blocked question and is offered on every call.
func (s *Session) speculate() {
	c := &s.eng.at
	fs, qKey := s.eng.instantiate(c.node)
	offerNode := s.specRound != c.round
	s.specRound = c.round
	mirror := ""
	var mirrorFS fact.Set
	if s.blocked.key.kind == KindConcrete && s.blocked.key.key != qKey {
		mirror = s.blocked.key.key
		mirrorFS = s.blocked.q.Facts
	}
	for i := c.turn + 1; i < len(s.eng.ids); i++ {
		if offerNode {
			s.speculateOn(i, qKey, fs)
		}
		if mirror != "" {
			s.speculateOn(i, mirror, mirrorFS)
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
		fs, qKey := e.instantiate(succ)
		for i := from; i < len(e.ids); i++ {
			s.speculateOn(i, qKey, fs)
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
	s.compact()
	s.speculate()
	dst = slices.Grow(dst, len(s.open)) // all live, the blocked one included
	dst = append(dst, s.blocked.q)
	for _, inst := range s.open {
		if inst != s.blocked {
			dst = append(dst, inst.q)
		}
	}
	return dst
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
	if b := s.blocked; b != nil && b.q.Member == member {
		dst = append(dst, b.q)
	}
	for _, inst := range s.open {
		if inst.live && inst != s.blocked && inst.q.Member == member {
			dst = append(dst, inst.q)
		}
	}
	return dst
}

// Lookup returns the question Submit would still accept under id: an open
// one in full, or a retired one still awaiting its one late answer, of
// which only ID, Member and Kind survive.
func (s *Session) Lookup(id QuestionID) (Question, bool) {
	if k, ok := s.retired[id]; ok {
		return Question{ID: id, Member: k.member, Kind: k.kind}, true
	}
	if s.res != nil || s.closed {
		return Question{}, false
	}
	if i := s.find(id); i >= 0 {
		return s.open[i].q, true
	}
	return Question{}, false
}

// find returns the index of the live open question id, or -1.
func (s *Session) find(id QuestionID) int {
	i := sort.Search(len(s.open), func(i int) bool { return s.open[i].q.ID >= id })
	if i == len(s.open) || s.open[i].q.ID != id || !s.open[i].live {
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
	if key, ok := s.retired[id]; ok {
		delete(s.retired, id)
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
	inst := s.open[i]
	s.drop(inst, true)
	if i == len(s.open)-1 { // the newest, always under Run, which never calls Next
		s.open = s.open[:i]
	}
	if inst == s.blocked {
		s.blocked = nil
		s.eng.answer(a)
		s.advance()
		return nil
	}
	s.buffered[inst.key] = a
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
// are. It is how prior sources derive best guesses from the crowd state
// without reaching into the engine.
func (s *Session) AggregateHint(fs fact.Set) (mean float64, answers int) {
	q := s.eng.cache.question(fs.Key())
	return q.mean(), q.answers()
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
		for _, inst := range s.open {
			if inst.live && inst.key.member == memberID {
				s.retire(inst)
			}
		}
		if b := s.blocked; b != nil && !b.live {
			s.blocked = nil
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

// specKey builds the ask key of a specialization question from its
// candidate list.
func specKey(candidates []fact.Set) string {
	keys := make([]string, len(candidates))
	for i, c := range candidates {
		keys[i] = c.Key()
	}
	return strings.Join(keys, "||")
}

// pruneKey builds the ask key of a pruning question from its term list.
func pruneKey(terms []vocab.Term) string {
	var buf [64]byte
	b := buf[:0]
	for i, t := range terms {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(t), 10)
	}
	return string(b)
}
