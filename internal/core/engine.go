package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"oassis/internal/aggregate"
	"oassis/internal/assign"
	"oassis/internal/crowd"
	"oassis/internal/fact"
	"oassis/internal/obs"
	"oassis/internal/vocab"
)

// Config parameterizes a mining run.
type Config struct {
	Space *assign.Space
	Theta float64

	// Members is the crowd. A single member with a FixedSample(1)
	// aggregator reproduces the single-user vertical algorithm of §4.1.
	Members []crowd.Member

	// Agg decides overall significance from each question's answers in
	// the run's CrowdCache; nil means aggregate.NewFixedSample(1). It is a
	// stateless rule, so one Config can drive any number of runs.
	Agg *aggregate.FixedSample

	// SpecializationRatio is the probability of posing a specialization
	// question instead of concrete questions while descending (§4.1, §6.4).
	// Each offers at most maxSpecializationCandidates choices.
	SpecializationRatio float64

	// EnablePruning offers user-guided pruning clicks to members (§6.2).
	EnablePruning bool

	// MaxQuestions is a safety budget on counted answers (0 = unlimited).
	MaxQuestions int
	// MaxQuestionsPerMember ends a member's participation after this many
	// counted answers (0 = unlimited); members may leave at any point
	// (§4.2, item 1).
	MaxQuestionsPerMember int

	// TrackTimeline records a Stats.Timeline point after every counted
	// answer (needed for the pace-of-collection figures). Its
	// ClassifiedValid count costs one order test per ValidBase row for
	// each explicit classification; untimed runs pay nothing for it.
	TrackTimeline bool

	// Prime is a CrowdCache from an earlier run of the same query: answers
	// found there are reused instead of re-asking the member, enabling the
	// threshold-replay methodology of §6.3 (crowd answers are independent
	// of the threshold, so a query can be re-evaluated for a different
	// threshold mostly from cache). Used primed answers are counted, as in
	// the paper's statistics; questions the original run never asked fall
	// through to the live member.
	Prime *Cache

	// Store, when non-nil, durably records every answer as the run
	// produces it (see internal/store).
	// Together with Prime it makes runs crash-recoverable: a restarted
	// engine primed from the store's recovered answers replays them
	// instead of re-asking the crowd, and the store's idempotent appends
	// absorb the replay.
	Store Sink

	// MaxMSPs, when positive, stops the run as soon as that many MSPs are
	// confirmed (significant with every successor classified
	// insignificant) — the top-k extension sketched in §8 of the paper.
	// Incremental evaluation returns the first-discovered answers early.
	MaxMSPs int

	// Stop, when non-nil, is the streaming stop rule the run consults
	// between questions: it observes every member's maximal affirmed
	// pattern and ends the run once the crowd has stopped volunteering
	// new ones. nil is the paper's ask-until-settled behavior.
	Stop *aggregate.SpeciesStop

	// SpamFilter enables the §4.2 crowd-member selection. When the
	// aggregator first decides a question, every answer to it is graded
	// against the consensus — the median of those answers — and scores a
	// hit when it lies within one scale step (gradeTolerance) of it. All
	// answers to a question are graded at once against the same
	// consensus, so a member's grade does not depend on the order in
	// which the question reached the crowd, and a minority answer cannot
	// drag an honest majority's consensus off the scale step. A member
	// whose smoothed accuracy rate (hits+1)/(trials+2) falls below
	// banFloor after banMinGraded graded answers is banned: the engine
	// asks them nothing more. Answers they already gave stay recorded and
	// keep counting in the aggregator. This is the accuracy-rate member
	// model of Zhang et al. used as a ban only.
	SpamFilter bool

	// PanelSpeculation, when positive, widens the step-driven Session's
	// speculation: beyond the current round's node question and the mirror
	// of the blocked question, Next also surfaces up to this many of the
	// round node's immediate successors per member — the questions the
	// engine asks next when the member descends. Batching layers
	// (internal/panel, the serving tier's panel route) use it to fill
	// per-member panels, so one round trip serves a whole descent chain.
	// Like all speculation, it affects wall clock and waste, never the
	// mined result; Run and sequential sessions ignore it.
	PanelSpeculation int

	// Rng drives the specialization-ratio coin flips; nil disables
	// specialization questions unless the ratio is 1.
	Rng *rand.Rand

	// Canceled, when non-nil, is polled on the question hot path; once it
	// reports true the run stops asking questions, discards any answer
	// still in flight, and returns the partial result. It is how
	// ExecContext implements deadline/cancel; Session.Close cancels the
	// same way.
	Canceled func() bool

	// Metrics, when non-nil, receives engine and session instrumentation
	// (questions issued/answered/retired, in-flight gauge, answer latency,
	// rounds, generated nodes). Purely observational: the mined result is
	// bit-identical with or without it.
	Metrics *Metrics

	// Tracer, when non-nil, receives span start/end events: one span per
	// main-loop round and one per issued question, annotated with question
	// IDs, members, and phases. Implementations must be concurrency-safe
	// and non-blocking; like Metrics, tracing never perturbs the run.
	Tracer obs.Tracer
}

const (
	// maxSpecializationCandidates bounds the choices offered per
	// specialization question (the UI's auto-completion list).
	maxSpecializationCandidates = 10
	// The spam filter (Config.SpamFilter): an answer within
	// gradeTolerance (one answer-scale step) of the consensus is a hit,
	// and a member whose smoothed hit rate falls below banFloor after
	// banMinGraded graded answers is banned. Honest members grade near 1
	// against a median consensus; a random five-level spammer lands
	// within one step of a mid-range consensus about half the time, so
	// the floor sits above 0.5.
	gradeTolerance = 0.25
	banFloor       = 0.6
	banMinGraded   = 8
)

// Result is the outcome of a mining run.
type Result struct {
	// MSPs is the set M of Algorithm 1: the maximal significant patterns,
	// possibly including assignments that are not valid w.r.t. the query.
	MSPs []assign.Assignment
	// ValidMSPs is M ∩ 𝒜valid — the query output (SELECT without ALL).
	ValidMSPs []assign.Assignment
	Stats     Stats
	Cache     *Cache

	// MSPQuestion[i] is the number of counted answers at the moment
	// MSPs[i] was first classified significant — the basis of the
	// pace-of-collection curves (see DiscoveredAt).
	MSPQuestion []int

	// InsigMinimal is the number of minimal insignificant anchors (the
	// |msp⁻| quantity of Propositions 4.7/4.8).
	InsigMinimal int

	// AnswersByMember counts each member's counted answers — the data
	// behind the paper's top-20 contributors statistics page (§6.2).
	AnswersByMember map[string]int

	// Banned lists the members the spam filter banned, in turn order.
	Banned []string
}

// engine carries the run state of the vertical multi-user algorithm. All
// per-node state is flat, indexed by the Space's dense node ids, which the
// classifier shares: the engine passes ids and reads a node's values from
// the Space only to order, instantiate or report it.
type engine struct {
	cfg Config
	cls *classifier

	// The step machine (step.go): the crowd by index, the position in the
	// algorithm, and the question the engine is parked on, if any.
	ids      []string // member IDs in turn order (the caller's; read-only)
	left     []bool   // by member index: left the run (Session.Leave)
	at       cursor
	want     want
	rep      reply
	endRound func() // ends the current round's trace span
	parked   bool
	aborted  bool // Session.Close: the run is canceled

	inPool  []bool   // by id: node belongs to the generated pool
	poolIDs []uint32 // pool nodes in generation order

	stats      Stats
	qs         questionTable  // the CrowdCache: the member answer memo and the aggregator's input
	mspLog     map[uint32]int // chain maxima by id -> question count at discovery (nil until the first)
	newAnswers int            // answers recorded in the current round

	expanded []bool   // by id: successors were generated
	toExpand []uint32 // significant nodes awaiting expansion

	succs   [][]uint32 // by id: successor memo (noSuccs when empty)
	succBuf []uint32   // backing store the successor memos are cut from

	nodeQ []uint32 // by id: the node's question id + 1 (0 until instantiated)

	answersBy []int // by member index: counted answers (§6.2 stats page)
	budgets   []int // by member index: remaining answers (nil when unlimited)

	rare *rareState // nil until an option that needs it is used
}

// rareState is the engine state that only timelines, the spam filter,
// user-guided pruning and primed runs use, behind one pointer allocated on
// first need, so a run that sets none of those options never pays for it.
type rareState struct {
	// Timeline bookkeeping (Config.TrackTimeline): rowNodes holds the
	// ValidBase singletons, built once, and classifiedRows marks the rows
	// already counted in classifiedN.
	rowNodes       []assign.Assignment
	classifiedRows []bool
	classifiedN    int

	grades []memberGrade // by member index: the spam filter's (nil when off)

	// Pruning (Config.EnablePruning): by member index, the bitset over the
	// vocabulary's terms of the pruned terms and every term below one (nil
	// until the member's first prune); by question id, the terms offered
	// (nil until first offered), cut from termBuf.
	pruned  [][]uint64
	terms   [][]vocab.Term
	termBuf []vocab.Term

	keyBuf []byte // scratch for a question key in bytes (Prime lookups)
}

// needRare returns the engine's rare state, allocating it on first need.
func (e *engine) needRare() *rareState {
	if e.rare == nil {
		e.rare = &rareState{}
	}
	return e.rare
}

// memberGrade is the spam filter's record of one member: answers graded
// against a consensus, the hits among them, and whether they are banned.
type memberGrade struct {
	trials, hits int
	banned       bool
}

// growNode extends the engine's flat per-node state to cover id.
func (e *engine) growNode(id uint32) {
	for uint32(len(e.inPool)) <= id {
		e.inPool = append(e.inPool, false)
		e.expanded = append(e.expanded, false)
		e.succs = append(e.succs, nil)
		e.nodeQ = append(e.nodeQ, 0)
	}
}

// instantiate returns the id of node id's question, instantiating the
// node and interning its fact-set on first need.
func (e *engine) instantiate(id uint32) uint32 {
	e.growNode(id)
	if q := e.nodeQ[id]; q != 0 {
		return q - 1
	}
	q := e.qs.intern(e.cfg.Space.Instantiate(e.cfg.Space.Node(id)))
	e.nodeQ[id] = q + 1
	return q
}

// questionOf returns node id's question, instantiating it on first need. The
// pointer is valid until the next question is interned.
func (e *engine) questionOf(id uint32) (uint32, *question) {
	q := e.instantiate(id)
	return q, &e.qs.all[q]
}

// noSuccs is the memo sentinel distinguishing "no successors" from "not yet
// generated".
var noSuccs = []uint32{}

// succsOf memoizes successor generation per node. Memoization is sound
// because the successor relation is fixed for the whole run: the space, its
// tables and MoreCandidates are all set before the engine starts. Each memo
// is a capacity-capped window of succBuf, so appending past it never
// touches an earlier memo.
func (e *engine) succsOf(id uint32) []uint32 {
	e.growNode(id)
	if s := e.succs[id]; s != nil {
		return s
	}
	start := len(e.succBuf)
	e.succBuf = e.cfg.Space.AppendSuccessorIDs(e.succBuf, id)
	s := e.succBuf[start:len(e.succBuf):len(e.succBuf)]
	if len(s) == 0 {
		s = noSuccs
	}
	e.succs[id] = s
	return s
}

// Run executes the vertical algorithm (Algorithm 1 with the multi-user
// modifications of §4.2) and returns the mined MSPs: a session driven to
// the end with cfg.Members answering the engine's own questions inline.
func Run(cfg Config) *Result { return runSession(cfg).res }

// runSession drives a session to the end, answering exactly the question
// the engine is parked on each time — never a speculative one — from
// cfg.Members.
func runSession(cfg Config) *Session {
	s := NewSession(cfg, memberIDs(cfg.Members))
	for s.blocked >= 0 {
		s.Submit(s.open[s.blocked].id, AnswerFrom(cfg.Members[s.eng.want.mi], s.eng.wanted()))
	}
	return s
}

// memberIDs lists the members' IDs in order.
func memberIDs(ms []crowd.Member) []string {
	ids := make([]string, len(ms))
	for i, m := range ms {
		ids[i] = m.ID()
	}
	return ids
}

// singleAnswer is the aggregator of a run whose Config names none: one
// answer decides a question. FixedSample is a stateless rule, so every run
// shares it.
var singleAnswer = aggregate.NewFixedSample(1)

// newEngine returns an engine over the crowd with the given member IDs,
// positioned before its first round. It keeps ids, which the caller must
// not change while the engine runs.
func newEngine(cfg Config, ids []string) *engine {
	if cfg.Agg == nil || cfg.Agg.K < 1 {
		cfg.Agg = singleAnswer
	}
	e := &engine{
		cfg:       cfg,
		cls:       newClassifier(cfg.Space),
		answersBy: make([]int, len(ids)),
		ids:       ids,
		left:      make([]bool, len(ids)),
		endRound:  func() {},
	}
	if cfg.TrackTimeline {
		r := e.needRare()
		r.rowNodes = make([]assign.Assignment, len(cfg.Space.ValidBase))
		for i, row := range cfg.Space.ValidBase {
			r.rowNodes[i] = cfg.Space.Singleton(row...)
		}
		r.classifiedRows = make([]bool, len(r.rowNodes))
	}
	if cfg.MaxQuestionsPerMember > 0 {
		e.budgets = make([]int, len(ids))
		for i := range e.budgets {
			e.budgets[i] = cfg.MaxQuestionsPerMember
		}
	}
	// Every node that turns significant — explicitly or by inference — is
	// scheduled for lattice expansion (Algorithm 1 iterates over all of 𝒜,
	// so successors of inferred-significant nodes must be generated too).
	e.cls.onSignificant = func(id uint32) {
		e.toExpand = append(e.toExpand, id)
	}
	if cfg.SpamFilter {
		e.needRare().grades = make([]memberGrade, len(ids))
	}
	return e
}

// drainExpansions expands every scheduled significant node in one batched
// pass: the queue is walked front to back, each node's successor ids come
// from the per-node memo (generated through the Space's node table on first
// need) and go straight to addNode. Expansion can schedule more nodes
// (newly registered significant successors), so the walk naturally drains
// the queue to a fixpoint.
func (e *engine) drainExpansions() {
	for i := 0; i < len(e.toExpand); i++ {
		e.expand(e.toExpand[i])
	}
	e.toExpand = e.toExpand[:0]
}

func (e *engine) seed() {
	for _, m := range e.cfg.Space.Minimal() {
		e.addNode(e.cfg.Space.ID(m))
	}
}

// addNode adds node id to the generated pool.
func (e *engine) addNode(id uint32) {
	e.growNode(id)
	if e.inPool[id] {
		return
	}
	e.inPool[id] = true
	e.poolIDs = append(e.poolIDs, id)
	e.stats.GeneratedNodes++
	e.cfg.Metrics.nodeGenerated()
	e.cls.register(id) // track its status incrementally from now on
}

// expand generates the successors of a significant node into the pool.
func (e *engine) expand(id uint32) {
	e.growNode(id)
	if e.expanded[id] {
		return
	}
	e.expanded[id] = true
	for _, s := range e.succsOf(id) {
		e.addNode(s)
	}
}

// pickUnclassified returns the unclassified generated node the paper's
// §4 order asks about first, or ok=false when there is none. With
// settledOnly, nodes whose recorded answers do not yet fix their verdict
// are skipped (the frontier-settlement filter). It scans the classifier's
// incrementally-maintained unclassified set for the (size, key)-least
// pool node without allocating; the key tie-break makes the choice
// independent of the set's internal order, so every execution mode picks
// the same node. A node of minimal size is minimal in the order up to
// rare multi-cover DAG absorptions, which cost at most a few extra
// questions, never correctness.
func (e *engine) pickUnclassified(settledOnly bool) (uint32, bool) {
	var best uint32
	bestKey := ""
	bestSize := -1
	for _, id := range e.cls.uncl {
		if int(id) >= len(e.inPool) || !e.inPool[id] {
			continue
		}
		if settledOnly && e.settledVerdict(id) == aggregate.Undecided {
			continue
		}
		n := e.cfg.Space.Node(id)
		size := n.Size()
		key := n.Key()
		if bestSize < 0 || size < bestSize || (size == bestSize && key < bestKey) {
			best, bestKey, bestSize = id, key, size
		}
	}
	return best, bestSize >= 0
}

func (e *engine) budgetLeft() bool {
	if e.canceled() {
		return false
	}
	if e.cfg.Stop != nil && e.cfg.Stop.ShouldStop() {
		e.stats.StoppedEarly = true
		return false
	}
	return e.cfg.MaxQuestions == 0 || e.stats.TotalQuestions < e.cfg.MaxQuestions
}

// canceled reports whether the run was canceled from outside.
func (e *engine) canceled() bool {
	return e.aborted || e.cfg.Canceled != nil && e.cfg.Canceled()
}

// memberActive reports whether member mi may still be asked questions:
// they have not left, and the spam filter has not banned them.
func (e *engine) memberActive(mi int) bool {
	g := e.grades()
	return !e.left[mi] && (g == nil || !g[mi].banned)
}

// grades returns the spam filter's records by member index, nil when the
// filter is off.
func (e *engine) grades() []memberGrade {
	if e.rare == nil {
		return nil
	}
	return e.rare.grades
}

// countAnswer books one counted crowd answer.
func (e *engine) countAnswer(kind QuestionKind) {
	e.stats.TotalQuestions++
	e.newAnswers++
	e.cfg.Metrics.answerCounted(kind)
	switch kind {
	case KindConcrete:
		e.stats.Concrete++
	case KindSpecialization:
		e.stats.Specialization++
	case KindNoneOfThese:
		e.stats.NoneOfThese++
	case KindPruning:
		e.stats.Pruning++
	}
	if e.cfg.TrackTimeline {
		e.stats.Timeline = append(e.stats.Timeline, Point{
			Questions:       e.stats.TotalQuestions,
			ClassifiedValid: e.rare.classifiedN,
			MSPsFound:       len(e.mspLog),
		})
	}
}

// primed returns member mi's answer to question qid from the primed cache
// (Config.Prime), if it holds one.
func (e *engine) primed(qid uint32, mi int) (float64, bool) {
	if e.cfg.Prime == nil {
		return 0, false
	}
	r := e.needRare()
	r.keyBuf = e.qs.all[qid].fs.AppendKey(r.keyBuf[:0])
	return e.cfg.Prime.lookupKey(r.keyBuf, e.ids[mi])
}

// prune records that member mi marked term t irrelevant: t and every term
// below it join the member's pruned bitset. Pruned terms belong to the
// member's ID, so every member index sharing it gets them.
func (e *engine) prune(mi int, t vocab.Term) {
	r := e.needRare()
	if r.pruned == nil {
		r.pruned = make([][]uint64, len(e.ids))
	}
	voc := e.cfg.Space.Voc
	words := (voc.Len() + 63) / 64
	for i, id := range e.ids {
		if id != e.ids[mi] {
			continue
		}
		row := r.pruned[i]
		if row == nil {
			row = make([]uint64, words)
			r.pruned[i] = row
		}
		for x := vocab.Term(0); int(x) < voc.Len(); x++ {
			if voc.Leq(t, x) {
				row[x>>6] |= 1 << (uint(x) & 63)
			}
		}
	}
}

// pruneHit reports whether member mi has marked a term generalizing (or
// equal to) one of fs's terms as irrelevant: three probes of their pruned
// bitset per fact.
func (e *engine) pruneHit(mi int, fs fact.Set) bool {
	if e.rare == nil || e.rare.pruned == nil {
		return false
	}
	row := e.rare.pruned[mi]
	if row == nil {
		return false
	}
	for _, f := range fs {
		if bitSet(row, f.S) || bitSet(row, f.R) || bitSet(row, f.O) {
			return true
		}
	}
	return false
}

// bitSet reports whether term t's bit is set in row; terms outside the
// vocabulary (Any, None) have none.
func bitSet(row []uint64, t vocab.Term) bool {
	return t >= 0 && int(t>>6) < len(row) && row[t>>6]&(1<<(uint(t)&63)) != 0
}

// recordAnswer stores member mi's first answer to node's question qid in
// the CrowdCache, then updates the node classification from the verdict.
func (e *engine) recordAnswer(node, qid uint32, mi int,
	sup float64, kind QuestionKind, counted bool) {
	q := &e.qs.all[qid]
	if q.record(mi, sup, e.cfg.Agg.K) {
		e.sinkAnswer(q, mi, sup, kind, counted)
		e.tally(q)
		if counted {
			q.asked = true
			e.countAnswer(kind)
			e.answersBy[mi]++
		} else {
			e.stats.FreeAnswers++
			e.cfg.Metrics.freeAnswer()
		}
	}
	e.applyVerdict(node, q)
}

// tally runs the spam filter's grading for a question that just received
// a new answer: a FixedSample question is undecided until its K-th
// answer, so that answer is the one that decides it and has it graded.
func (e *engine) tally(q *question) {
	if e.grades() != nil && len(q.answers) == e.cfg.Agg.K {
		e.grade(q)
	}
}

// grade is the spam filter's step for question q (see
// Config.SpamFilter), run once, when the answer just recorded made the
// aggregator decide it: every member's answer is graded against the
// median of all the answers to it. A question with a single answer has no
// consensus and grades nobody.
func (e *engine) grade(q *question) {
	var buf [16]float64
	ans := buf[:0]
	for _, a := range q.answers {
		ans = append(ans, a.sup)
	}
	n := len(ans)
	if n < 2 {
		return
	}
	sort.Float64s(ans)
	consensus := (ans[(n-1)/2] + ans[n/2]) / 2
	for _, a := range q.answers {
		g := &e.rare.grades[a.mi]
		g.trials++
		if d := math.Abs(a.sup - consensus); d <= gradeTolerance+aggregate.Eps {
			g.hits++
		}
		rate := float64(g.hits+1) / float64(g.trials+2)
		if !g.banned && g.trials >= banMinGraded && rate < banFloor {
			g.banned = true
			e.stats.BannedMembers++
			e.cfg.Metrics.memberBanned()
		}
	}
}

// observeStopDiscovery feeds the end of a member's descent chain — their
// maximal affirmed pattern — to the stop policy's species stream.
func (e *engine) observeStopDiscovery(node uint32, member string) {
	if e.cfg.Stop == nil {
		return
	}
	e.cfg.Stop.ObserveDiscovery(e.cfg.Space.Node(node).Key(), member)
	e.cfg.Metrics.stopEstimate(e.cfg.Stop.Estimate())
}

// confirmedMSPs counts the significant anchors whose successors are all
// classified (hence confirmed maximal) — the top-k early-stop condition.
func (e *engine) confirmedMSPs() int {
	n := 0
	for _, a := range e.cls.sig {
		confirmed := true
		for _, s := range e.succsOf(a) {
			if e.cls.status(s) == Unclassified {
				confirmed = false
				break
			}
		}
		if confirmed {
			n++
		}
	}
	return n
}

// applyVerdict classifies node from the aggregator's verdict on its
// question q.
func (e *engine) applyVerdict(node uint32, q *question) {
	e.classifyAs(node, e.cfg.Agg.Verdict(len(q.answers), q.sum, e.cfg.Theta))
}

// classifyAs classifies node by verdict v; Undecided leaves it as it is.
func (e *engine) classifyAs(node uint32, v aggregate.Verdict) {
	switch v {
	case aggregate.Significant:
		if e.cls.status(node) != Significant {
			e.cls.markSignificant(node)
			e.recordChainMax(node) // discovery time for the pace curves
			e.onClassified(node, true)
			e.expand(node)
		}
	case aggregate.Insignificant:
		if e.cls.status(node) != Insignificant {
			e.cls.markInsignificant(node)
			e.onClassified(node, false)
		}
	}
}

// onClassified updates the classified-valid-rows counter for the timeline:
// one order test per not-yet-counted ValidBase row. Untimed runs keep no
// row state and return at once.
func (e *engine) onClassified(id uint32, significant bool) {
	x := e.rare
	if x == nil || x.classifiedRows == nil {
		return
	}
	a := e.cfg.Space.Node(id)
	for i, r := range x.rowNodes {
		if x.classifiedRows[i] {
			continue
		}
		if significant && e.cfg.Space.Leq(r, a) || !significant && e.cfg.Space.Leq(a, r) {
			x.classifiedRows[i] = true
			x.classifiedN++
		}
	}
}

// noTerms is the memo sentinel distinguishing "no terms to offer" from "not
// yet computed".
var noTerms = []vocab.Term{}

// pruneTerms returns the distinct terms of question qid's facts, in fact
// order, that a pruning offer puts before the member: computed on the
// question's first offer into a capacity-capped window of termBuf, and
// read from there after.
func (e *engine) pruneTerms(qid uint32) []vocab.Term {
	r := e.needRare()
	for uint32(len(r.terms)) <= qid {
		r.terms = append(r.terms, nil)
	}
	if ts := r.terms[qid]; ts != nil {
		return ts
	}
	start := len(r.termBuf)
	for _, f := range e.qs.all[qid].fs {
		for _, t := range [3]vocab.Term{f.S, f.R, f.O} {
			if t != vocab.Any && !slices.Contains(r.termBuf[start:], t) {
				r.termBuf = append(r.termBuf, t)
			}
		}
	}
	ts := r.termBuf[start:len(r.termBuf):len(r.termBuf)]
	if len(ts) == 0 {
		ts = noTerms
	}
	r.terms[qid] = ts
	return ts
}

// appendUnclassifiedSuccessors appends node's immediate successors that
// are still unclassified to dst, generating them into the pool.
func (e *engine) appendUnclassifiedSuccessors(dst []uint32, node uint32) []uint32 {
	for _, s := range e.succsOf(node) {
		if e.cls.status(s) == Unclassified {
			e.addNode(s)
			dst = append(dst, s)
		}
	}
	return dst
}

// recordChainMax records node as the maximum of a member's descent chain
// (line 8 of Algorithm 1).
func (e *engine) recordChainMax(node uint32) {
	if _, ok := e.mspLog[node]; !ok {
		if e.mspLog == nil {
			e.mspLog = make(map[uint32]int)
		}
		e.mspLog[node] = e.stats.TotalQuestions
	}
}

// specializeCoin decides whether to pose a specialization question.
func (e *engine) specializeCoin() bool {
	r := e.cfg.SpecializationRatio
	if r >= 1 {
		return true
	}
	if r <= 0 || e.cfg.Rng == nil {
		return false
	}
	return e.cfg.Rng.Float64() < r
}

// forceClassify decides a node from the current mean of its answers:
// the paper's fallback when the crowd cannot give it K answers.
func (e *engine) forceClassify(node uint32) {
	_, q := e.questionOf(node)
	e.stats.ForcedClassifications++
	v := aggregate.Insignificant
	if len(q.answers) > 0 && q.mean() >= e.cfg.Theta-aggregate.Eps {
		v = aggregate.Significant
	}
	e.classifyAs(node, v)
}

// settledVerdict is the verdict node's recorded answers fix whatever the
// answers still missing from its sample of K would be: Significant when
// the sum s of the k answers in hand reaches θ even if the rest are all
// 0 (s/K ≥ θ), Insignificant when it stays below θ even if they are all
// 1 ((s+K−k)/K < θ), and Undecided otherwise or with no answers.
func (e *engine) settledVerdict(node uint32) aggregate.Verdict {
	_, q := e.questionOf(node)
	k := len(q.answers)
	if k == 0 {
		return aggregate.Undecided
	}
	n := max(k, e.cfg.Agg.K)
	if e.cfg.Agg.Verdict(n, q.sum, e.cfg.Theta) == aggregate.Significant {
		return aggregate.Significant
	}
	if e.cfg.Agg.Verdict(n, q.sum+float64(n-k), e.cfg.Theta) == aggregate.Insignificant {
		return aggregate.Insignificant
	}
	return aggregate.Undecided
}

// settleFrontier classifies, in the run's order and without asking a
// single further question, every unclassified pool node whose recorded
// answers already fix its verdict (settledVerdict): an early stop keeps
// the evidence it paid for. Every other node stays unclassified. Deciding
// one from the mean of fewer than K answers could mark a pattern
// significant that its full sample rejects, and put an early MSP outside
// the exhaustive run's answer set.
func (e *engine) settleFrontier() {
	for {
		e.drainExpansions()
		node, ok := e.pickUnclassified(true)
		if !ok {
			return
		}
		e.stats.StopSettled++
		e.classifyAs(node, e.settledVerdict(node))
	}
}

// result finalizes the run.
func (e *engine) result() *Result {
	e.stats.UniqueQuestions = 0
	for i := range e.qs.all {
		if e.qs.all[i].asked {
			e.stats.UniqueQuestions++
		}
	}
	if e.cfg.Stop != nil {
		e.stats.StopEstimate = e.cfg.Stop.Estimate()
		if e.stats.StoppedEarly {
			e.settleFrontier()
			// Each pool node still unclassified after settling needs at
			// least one more crowd answer, so the count is a lower bound on
			// the questions saved.
			saved := 0
			for _, id := range e.cls.uncl {
				if int(id) < len(e.inPool) && e.inPool[id] {
					saved++
				}
			}
			e.stats.StopUnclassified = saved
			e.cfg.Metrics.stopSaved(saved)
		}
	}
	ids := slices.Clone(e.cls.sig)
	e.sortByKey(ids)
	msps := make([]assign.Assignment, len(ids))
	mspQ := make([]int, len(ids))
	for k, id := range ids {
		msps[k] = e.cfg.Space.Node(id)
		q, ok := e.mspLog[id]
		if !ok {
			q = e.stats.TotalQuestions
		}
		mspQ[k] = q
	}
	var valid []assign.Assignment
	for _, m := range msps {
		if e.cfg.Space.IsValid(m) {
			valid = append(valid, m)
		}
	}
	answersBy := make(map[string]int, len(e.answersBy))
	for mi, n := range e.answersBy {
		if n > 0 {
			answersBy[e.ids[mi]] += n
		}
	}
	var banned []string
	for mi, g := range e.grades() {
		if g.banned {
			banned = append(banned, e.ids[mi])
		}
	}
	return &Result{
		MSPs:            msps,
		ValidMSPs:       valid,
		Stats:           e.stats,
		Cache:           e.qs.view(e.ids),
		MSPQuestion:     mspQ,
		InsigMinimal:    len(e.cls.insig),
		AnswersByMember: answersBy,
		Banned:          banned,
	}
}

// DiscoveredAt returns the number of counted answers at which m was first
// classified significant, and whether m is one of the result's MSPs.
func (r *Result) DiscoveredAt(m assign.Assignment) (int, bool) {
	i, ok := slices.BinarySearchFunc(r.MSPs, m.Key(), func(a assign.Assignment, k string) int {
		return strings.Compare(a.Key(), k)
	})
	if !ok {
		return 0, false
	}
	return r.MSPQuestion[i], true
}

// sortByKey sorts node ids by their nodes' keys.
func (e *engine) sortByKey(ids []uint32) {
	slices.SortFunc(ids, func(x, y uint32) int {
		return strings.Compare(e.cfg.Space.Node(x).Key(), e.cfg.Space.Node(y).Key())
	})
}

// AllSignificant enumerates the significant valid assignments implied by a
// result (the SELECT ... ALL form): the valid base assignments below some
// MSP, plus the valid multiplicity nodes among the MSPs themselves and their
// recorded predecessors. It is computed from the MSP set by downward
// closure over the valid base rows.
func AllSignificant(sp *assign.Space, msps []assign.Assignment) []assign.Assignment {
	var out []assign.Assignment
	for _, row := range sp.ValidBase {
		r := sp.Singleton(row...)
		for _, m := range msps {
			if sp.Leq(r, m) {
				out = append(out, r)
				break
			}
		}
	}
	for _, m := range msps {
		if sp.IsValid(m) {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return slices.CompactFunc(out, assign.Assignment.Equal)
}
