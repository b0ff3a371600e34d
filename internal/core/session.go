package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
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
	k := askKey{mi: int32(w.mi), q: w.qid, kind: w.kind}
	if w.kind == KindSpecialization {
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

// openQ is one issued question in the open slab: the session's
// bookkeeping for it, from which read renders the Question. The member,
// facts, terms and choices live in the engine (render): only the question
// the engine is blocked on can be a specialization or pruning offer, since
// speculation issues concrete questions only and a blocked question is
// dropped or retired as soon as it stops being blocked.
type openQ struct {
	id     QuestionID
	key    askKey
	gen    int32         // round at issue time (speculative retirement)
	live   bool          // not yet answered or retired
	spec   bool          // Question.Speculative
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

	// The issued questions in ID order, as one value slab; dead ones wait
	// for Next to compact them away.
	open     []openQ
	byKey    map[askKey]QuestionID // the live questions
	buffered map[askKey]Answer     // nil until the first answer is buffered
	retired  []retiredQ            // in ID order; late answers are still buffered once
	specIDs  map[specList]uint32   // specialization candidate lists seen, by ask-key id
	blocked  int                   // index in open of the engine's question, -1 when none
	dead     int32                 // answered or retired questions still in open
	lowDead  int32                 // the lowest index in open of a dead question, while dead > 0
	nextID   QuestionID            // IDs start at 1, so 0 never names a question

	view      *nextView // nil until the first Next: serving hosts call AppendNext only
	specRound int       // the round of the last Next

	// Observability (nil/zero when neither metrics nor tracer is
	// attached). With metrics, each question's issue time is an offset
	// from born on the monotonic clock, kept in its open entry; spanEnd,
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

// nextView is Next's result, kept from call to call, and the lowest
// question ID whose place in its tail (every question after the blocked
// one) may have changed since it was rendered: one issued, dropped, or
// adopted as the blocked question. The tail below that ID still matches
// the slab, so Next renders only the part from it on.
type nextView struct {
	qs   []Question
	mark QuestionID // math.MaxInt64 when nothing changed
}

// NewSession starts the engine over the given member IDs and runs it to
// its first question. cfg.Members is ignored: the caller answers. The
// session keeps memberIDs without copying it, so the slice is read-only
// from here on: the caller must not change it while the session lives.
func NewSession(cfg Config, memberIDs []string) *Session {
	s := &Session{
		byKey:   make(map[askKey]QuestionID),
		blocked: -1,
		nextID:  1,
		metrics: cfg.Metrics,
		tracer:  cfg.Tracer,
	}
	if s.metrics != nil {
		s.born = time.Now()
	}
	if s.tracer != nil {
		s.spanEnd = make(map[QuestionID]func())
	}
	cfg.Members = nil
	s.eng = newEngine(cfg, memberIDs)
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
			s.open[s.blocked].spec = false
			s.moved(id)
			return
		}
		s.blocked = s.issue(k, false)
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
	for i := range s.open {
		if s.open[i].live {
			s.retire(i)
		}
	}
	s.open, s.dead = nil, 0
}

// retire closes the live open question i unanswered. Until Close its ID
// still takes one late answer (never re-ask a human); Next no longer
// surfaces it. Retirement mostly follows issue order, so the ID-ordered
// insert is nearly always an append.
func (s *Session) retire(i int) {
	if !s.closed {
		r := retiredQ{id: s.open[i].id, key: s.open[i].key}
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

// issue opens the question k under a fresh ID and returns its index in
// open. The slab's first issue sizes it for the crowd: a round's node
// question for every member, and the blocked one.
func (s *Session) issue(k askKey, speculative bool) int {
	if s.open == nil {
		s.open = make([]openQ, 0, len(s.eng.ids)+1)
	}
	s.open = append(s.open, openQ{id: s.nextID, key: k, gen: int32(s.eng.at.round), live: true, spec: speculative})
	s.byKey[k] = s.nextID
	s.moved(s.nextID)
	s.nextID++
	s.noteIssued(&s.open[len(s.open)-1])
	return len(s.open) - 1
}

// noteIssued books a freshly issued question with the attached metrics and
// tracer. With neither attached it does nothing at all (not even a clock
// read).
func (s *Session) noteIssued(o *openQ) {
	if s.metrics != nil {
		s.metrics.questionIssued(o.key.kind, o.spec)
		o.issued = time.Since(s.born)
	}
	if s.tracer != nil {
		phase := "blocked"
		if o.spec {
			phase = "speculative"
		}
		s.spanEnd[o.id] = s.tracer.Begin("question",
			obs.A("id", strID(o.id)), obs.A("member", s.eng.ids[o.key.mi]),
			obs.A("kind", o.key.kind.String()), obs.A("phase", phase))
	}
}

// moved records that question id joined or left the tail of Next's view.
func (s *Session) moved(id QuestionID) {
	if v := s.view; v != nil && id < v.mark {
		v.mark = id
	}
}

// read renders open question o into q.
func (s *Session) read(q *Question, o *openQ) {
	q.ID, q.Speculative = o.id, o.spec
	s.eng.render(q, int(o.key.mi), o.key.q, o.key.kind)
}

// readConcrete renders the open concrete question o into q, its member
// from ids and its facts from the question table all.
func readConcrete(q *Question, o *openQ, ids []string, all []question) {
	q.ID, q.Member, q.Kind, q.Facts, q.Speculative = o.id, ids[o.key.mi], KindConcrete, all[o.key.q].fs, o.spec
	if q.Choices != nil || q.Terms != nil {
		q.Choices, q.Terms = nil, nil
	}
}

// drop marks the live open question i dead and frees its ask key; the
// attached metrics and tracer book it answered (with its latency) or
// retired. The blocked question is never in the tail of Next's view, so
// its drop leaves the view's mark alone.
func (s *Session) drop(i int, answered bool) {
	m := &s.open[i]
	m.live = false
	if s.dead == 0 || int32(i) < s.lowDead {
		s.lowDead = int32(i)
	}
	s.dead++
	if i != s.blocked {
		s.moved(m.id)
	}
	delete(s.byKey, m.key)
	if s.metrics != nil {
		if answered {
			s.metrics.questionAnswered(m.key.kind, time.Since(s.born)-m.issued)
		} else {
			s.metrics.questionRetired()
		}
	}
	if s.tracer != nil {
		if end, ok := s.spanEnd[m.id]; ok {
			end()
			delete(s.spanEnd, m.id)
		}
	}
}

// compact drops dead questions from the open slab. On the round's first
// Next (newRound) it first retires, in ID order, the speculative questions
// from rounds the engine has moved past; later Nexts of the round would
// find none, since every question issued since carries the round. Then,
// from the first dead question on, each run of live questions moves down
// with one copy.
func (s *Session) compact(newRound bool) {
	b := s.blocked
	if newRound {
		round := s.eng.at.round
		for i := range s.open {
			if o := &s.open[i]; o.live && i != b && o.gen != int32(round) && o.spec {
				s.retire(i)
			}
		}
	}
	if s.dead == 0 {
		return
	}
	n := int(s.lowDead)
	for i := n; i < len(s.open); {
		j := i // the live run open[i:j], then the dead question at j
		for j < len(s.open) && s.open[j].live {
			j++
		}
		if i <= b && b < j {
			s.blocked = n + b - i
		}
		copy(s.open[n:], s.open[i:j])
		n += j - i
		i = j + 1
	}
	s.open, s.dead = s.open[:n], 0
}

// speculateOn opens a speculative concrete question qid for member idx if
// the engine could still ask it of them: active, with budget, and without
// a cached, primed, or pruning-implied answer — and the question is not
// already open or buffered for them.
func (s *Session) speculateOn(idx int, qid uint32) {
	e := s.eng
	q := &e.qs.all[qid]
	_, cached := q.support(idx)
	if !e.memberActive(idx) || e.spent(idx) || cached || e.pruneHit(idx, q.fs) {
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
	s.issue(k, true)
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
	b := s.open[s.blocked].key
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
// The returned slice is the session's own view, kept from call to call:
// it stays valid until the next Next, and the caller must neither modify
// nor reorder it. Submit, SubmitBatch, AppendOpen and Lookup never write
// to it, so answering the questions of one Next in a loop is safe; a
// caller that wants another order, or keeps questions across Nexts,
// copies them, or calls AppendNext with a buffer of its own. Next brings
// the view up to date in place: it renders the blocked question afresh,
// and the rest only from the lowest question ID issued, dropped or
// adopted as the blocked question since the last call; the questions
// before that ID keep their slots.
func (s *Session) Next() []Question {
	if s.res != nil || s.closed {
		return nil
	}
	s.refresh()
	v := s.view
	if v == nil {
		v = &nextView{} // mark 0: render every question
		s.view = v
	}
	from, _ := s.openAt(v.mark)
	n := len(s.open)
	v.qs = slices.Grow(v.qs, max(n-len(v.qs), 0))[:n]
	s.renderNext(v.qs, from)
	v.mark = math.MaxInt64
	return v.qs
}

// AppendNext is Next in append form: it retires stale speculation,
// speculates, and appends every question answerable right now to dst —
// the blocked one first, then the open speculative ones in issue order —
// returning the extended slice. It renders every question and leaves
// Next's view alone. Once the run has finished it returns dst unchanged.
func (s *Session) AppendNext(dst []Question) []Question {
	if s.res != nil || s.closed {
		return dst
	}
	s.refresh()
	n := len(dst)
	dst = slices.Grow(dst, len(s.open))[:n+len(s.open)]
	s.renderNext(dst[n:], 0)
	return dst
}

// refresh readies the slab for a render: it compacts, retiring stale
// speculation on the round's first call, then speculates.
func (s *Session) refresh() {
	round := s.eng.at.round
	newRound := s.specRound != round
	s.specRound = round
	s.compact(newRound)
	s.speculate(newRound)
}

// renderNext renders the questions Next returns into dst, one slot per
// open question: the blocked one into dst[0], then the others from
// open[from:] in ID order into the end of dst; the slots between keep
// what they hold. After compaction every open question is live, and all
// but the blocked one are concrete (see openQ), so their loop reads only
// the member and the question table.
func (s *Session) renderNext(dst []Question, from int) {
	b := s.blocked
	s.read(&dst[0], &s.open[b])
	ids, all := s.eng.ids, s.eng.qs.all
	rest, out := s.open[from:], dst[from:]
	if j := b - from; j >= 0 {
		out = out[1:]
		for i := range rest[:j] {
			readConcrete(&out[i], &rest[i], ids, all)
		}
		rest, out = rest[j+1:], out[j:]
	}
	for i := range rest {
		readConcrete(&out[i], &rest[i], ids, all)
	}
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
	ids := s.eng.ids
	if b := s.blocked; b >= 0 && ids[s.open[b].key.mi] == member {
		dst = append(dst, Question{})
		s.read(&dst[len(dst)-1], &s.open[b])
	}
	for i := range s.open {
		if o := &s.open[i]; o.live && i != s.blocked && ids[o.key.mi] == member {
			dst = append(dst, Question{})
			s.read(&dst[len(dst)-1], o)
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
		var q Question
		s.read(&q, &s.open[i])
		return q, true
	}
	return Question{}, false
}

// openAt returns where id is, or would be, in the open slab, and whether
// it is there (live or dead).
func (s *Session) openAt(id QuestionID) (int, bool) {
	return slices.BinarySearchFunc(s.open, id, func(o openQ, id QuestionID) int {
		return cmp.Compare(o.id, id)
	})
}

// find returns the index of the live open question id, or -1.
func (s *Session) find(id QuestionID) int {
	if i, ok := s.openAt(id); ok && s.open[i].live {
		return i
	}
	return -1
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
			s.buffer(key, a)
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
	key := s.open[i].key
	blocked := i == s.blocked
	if i == len(s.open)-1 { // the newest, always under Run, which never calls Next
		s.open, s.dead = s.open[:i], s.dead-1
	}
	if blocked {
		s.blocked = -1
		s.eng.answer(a)
		s.advance()
		return nil
	}
	s.buffer(key, a)
	return nil
}

// buffer holds an answer collected ahead of the engine until it asks k.
func (s *Session) buffer(k askKey, a Answer) {
	if s.buffered == nil {
		s.buffered = make(map[askKey]Answer)
	}
	s.buffered[k] = a
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
		for j := range s.open {
			if s.open[j].live && s.open[j].key.mi == int32(i) {
				s.retire(j)
			}
		}
		if b := s.blocked; b >= 0 && !s.open[b].live {
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
