package core

import (
	"math/rand"
	"sort"

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

	// Agg decides overall significance; nil means aggregate.NewFixedSample(1).
	Agg aggregate.Aggregator

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

	// Store, when non-nil, durably records every answer and explicit
	// classification event as the run produces them (see internal/store).
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

	// Stop, when non-nil, is the streaming stop-condition estimator the
	// run consults between questions (see aggregate.StopPolicy): it
	// observes every recorded answer and every member's maximal affirmed
	// pattern, may end the run once its estimate crosses its target
	// (SpeciesStop), and may grade members online (AccuracyWeightedStop,
	// whose spammer flags exclude members like the consistency filter
	// does). nil — and the inert aggregate.ThresholdStop{} — reproduce
	// the paper's ask-until-settled behavior bit-identically.
	Stop aggregate.StopPolicy

	// SpamMaxViolations, when positive, enables the §4.2 crowd-member
	// selection: a member whose answers violate support monotonicity (a
	// more specific fact-set reported more frequent than a more general
	// one, beyond spamTolerance) more than this many times is excluded
	// from further questions and their answers are ignored by the
	// aggregator.
	SpamMaxViolations int

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
	// spamTolerance is the slack allowed before an answer pair counts as a
	// monotonicity violation: one answer-scale step.
	spamTolerance = 0.25
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

	// MSPQuestion maps each MSP (by key) to the number of counted answers
	// at the moment it was first classified significant — the basis of the
	// pace-of-collection curves.
	MSPQuestion map[string]int

	// InsigMinimal is the number of minimal insignificant anchors (the
	// |msp⁻| quantity of Propositions 4.7/4.8).
	InsigMinimal int

	// AnswersByMember counts each member's counted answers — the data
	// behind the paper's top-20 contributors statistics page (§6.2).
	AnswersByMember map[string]int
}

// engine carries the run state of the vertical multi-user algorithm. All
// per-node state is flat, indexed by the nodeStore's dense ids, which the
// classifier shares: one key-string map probe interns a node, everything
// after that is slice indexing.
type engine struct {
	cfg Config
	sp  *assign.Space
	agg aggregate.Aggregator
	ns  *nodeStore
	cls *classifier

	// The step machine (step.go): the crowd by index, the position in the
	// algorithm, and the question the engine is parked on, if any.
	ids      []string // member IDs in turn order
	left     []bool   // by member index: left the run (Session.Leave)
	at       cursor
	want     want
	parked   bool
	rep      reply
	endRound func() // ends the current round's trace span
	aborted  bool   // Session.Close: the run is canceled

	inPool  []bool   // by id: node belongs to the generated pool
	poolIDs []uint32 // pool nodes in generation order

	pruned     map[string][]vocab.Term // member -> pruned terms
	stats      Stats
	cache      *Cache // the CrowdCache, which is also the member answer memo
	uniqueQ    map[string]struct{}
	mspLog     map[string]int // chain maxima -> question count at discovery
	newAnswers int            // answers recorded in the current round

	// Timeline bookkeeping, allocated only under Config.TrackTimeline:
	// rowNodes holds the ValidBase singletons, built once, and
	// classifiedRows marks the rows already counted in classifiedN.
	rowNodes       []assign.Assignment
	classifiedRows []bool
	classifiedN    int

	expanded []bool   // by id: successors were generated
	toExpand []uint32 // significant nodes awaiting expansion

	succs [][]assign.Assignment // by id: successor memo (noSuccs when empty)

	inst   []instEntry // by id: instantiation + question key memo
	instOK []bool

	answersBy map[string]int // counted answers per member (§6.2 stats page)
	budgets   []int          // by member index: remaining answers (-1 = unlimited)

	consistency *aggregate.ConsistencyTracker // §4.2 spammer filter (optional)
	banned      map[string]bool               // members excluded as inconsistent

	stop  aggregate.StopPolicy     // optional stop-condition estimator
	stopW aggregate.MemberWeighter // stop's member-grading view, if any
}

type instEntry struct {
	fs   fact.Set
	qKey string
}

// growNode extends the engine's flat per-node state to cover id.
func (e *engine) growNode(id uint32) {
	for uint32(len(e.inPool)) <= id {
		e.inPool = append(e.inPool, false)
		e.expanded = append(e.expanded, false)
		e.succs = append(e.succs, nil)
		e.inst = append(e.inst, instEntry{})
		e.instOK = append(e.instOK, false)
	}
}

// instantiate memoizes the node's fact-set question.
func (e *engine) instantiate(node assign.Assignment) (fact.Set, string) {
	id := e.ns.intern(node)
	e.growNode(id)
	if e.instOK[id] {
		ent := &e.inst[id]
		return ent.fs, ent.qKey
	}
	fs := e.sp.Instantiate(node)
	ent := instEntry{fs: fs, qKey: fs.Key()}
	e.inst[id] = ent
	e.instOK[id] = true
	return ent.fs, ent.qKey
}

// noSuccs is the memo sentinel distinguishing "no successors" from "not yet
// generated".
var noSuccs = []assign.Assignment{}

// succsOf memoizes successor generation per node. Memoization is sound
// because the successor relation is fixed for the whole run: the space, its
// tables and MoreCandidates are all set before the engine starts.
func (e *engine) succsOf(id uint32) []assign.Assignment {
	e.growNode(id)
	if s := e.succs[id]; s != nil {
		return s
	}
	s := e.sp.Successors(e.ns.node(id))
	if s == nil {
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
	for s.blocked != nil {
		q := s.blocked.q
		s.Submit(q.ID, AnswerFrom(cfg.Members[s.eng.want.mi], q))
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

// newEngine returns an engine over the crowd with the given member IDs,
// positioned before its first round.
func newEngine(cfg Config, ids []string) *engine {
	agg := cfg.Agg
	if agg == nil {
		agg = aggregate.NewFixedSample(1)
	}
	ns := newNodeStore()
	e := &engine{
		cfg:       cfg,
		sp:        cfg.Space,
		agg:       agg,
		ns:        ns,
		cls:       newClassifierOn(cfg.Space, ns),
		pruned:    make(map[string][]vocab.Term),
		cache:     NewCacheSized(len(ids)),
		uniqueQ:   make(map[string]struct{}),
		mspLog:    make(map[string]int),
		answersBy: make(map[string]int),
		ids:       ids,
		left:      make([]bool, len(ids)),
		budgets:   make([]int, len(ids)),
		endRound:  func() {},
	}
	if cfg.TrackTimeline {
		e.rowNodes = make([]assign.Assignment, len(cfg.Space.ValidBase))
		for i, row := range cfg.Space.ValidBase {
			e.rowNodes[i] = cfg.Space.Singleton(row...)
		}
		e.classifiedRows = make([]bool, len(e.rowNodes))
	}
	for i := range e.budgets {
		e.budgets[i] = -1
		if cfg.MaxQuestionsPerMember > 0 {
			e.budgets[i] = cfg.MaxQuestionsPerMember
		}
	}
	// Every node that turns significant — explicitly or by inference — is
	// scheduled for lattice expansion (Algorithm 1 iterates over all of 𝒜,
	// so successors of inferred-significant nodes must be generated too).
	e.cls.onSignificant = func(id uint32) {
		e.toExpand = append(e.toExpand, id)
	}
	if cfg.SpamMaxViolations > 0 {
		e.consistency = aggregate.NewConsistencyTracker(cfg.Space.Voc, spamTolerance)
		e.banned = make(map[string]bool)
	}
	if cfg.Stop != nil {
		e.stop = cfg.Stop
		if w, ok := cfg.Stop.(aggregate.MemberWeighter); ok {
			e.stopW = w
			if e.banned == nil {
				e.banned = make(map[string]bool)
			}
		}
	}
	return e
}

// drainExpansions expands every scheduled significant node in one batched
// pass: the queue is walked front to back, each node's successors come from
// the per-node memo (generated into the Space's shared scratch and arenas on
// first need), and each generated candidate costs a single intern probe in
// addNode. Expansion can schedule more nodes (newly registered significant
// successors), so the walk naturally drains the queue to a fixpoint.
func (e *engine) drainExpansions() {
	for i := 0; i < len(e.toExpand); i++ {
		e.expandID(e.toExpand[i])
	}
	e.toExpand = e.toExpand[:0]
}

func (e *engine) seed() {
	for _, m := range e.sp.Minimal() {
		e.addNode(m)
	}
}

func (e *engine) addNode(a assign.Assignment) uint32 {
	id := e.ns.intern(a)
	e.growNode(id)
	if e.inPool[id] {
		return id
	}
	e.inPool[id] = true
	e.poolIDs = append(e.poolIDs, id)
	e.stats.GeneratedNodes++
	e.cfg.Metrics.nodeGenerated()
	e.cls.registerID(id) // track its status incrementally from now on
	return id
}

// expand generates the successors of a significant node into the pool.
func (e *engine) expand(a assign.Assignment) {
	e.expandID(e.ns.intern(a))
}

func (e *engine) expandID(id uint32) {
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
// answeredOnly, nodes whose questions hold no recorded answers are
// skipped (the frontier-settlement filter). It scans the classifier's
// incrementally-maintained unclassified set for the (size, key)-least
// pool node without allocating; the key tie-break makes the choice
// independent of the set's internal order, so every execution mode picks
// the same node. A node of minimal size is minimal in the order up to
// rare multi-cover DAG absorptions, which cost at most a few extra
// questions, never correctness.
func (e *engine) pickUnclassified(answeredOnly bool) (assign.Assignment, bool) {
	best := -1
	bestKey := ""
	bestSize := -1
	for _, id := range e.cls.uncl {
		if int(id) >= len(e.inPool) || !e.inPool[id] {
			continue
		}
		n := e.ns.node(id)
		if answeredOnly {
			if _, qKey := e.instantiate(n); e.agg.Answers(qKey) == 0 {
				continue
			}
		}
		size := n.Size()
		key := n.Key()
		if bestSize < 0 || size < bestSize || (size == bestSize && key < bestKey) {
			best, bestKey, bestSize = int(id), key, size
		}
	}
	if best < 0 {
		return assign.Assignment{}, false
	}
	return e.ns.node(uint32(best)), true
}

func (e *engine) budgetLeft() bool {
	if e.canceled() {
		return false
	}
	if e.stop != nil && e.stop.ShouldStop() {
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
// they have not left, and neither the consistency filter nor the stop
// policy has banned them.
func (e *engine) memberActive(mi int) bool {
	return !e.left[mi] && (e.banned == nil || !e.banned[e.ids[mi]])
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
			ClassifiedValid: e.classifiedN,
			MSPsFound:       len(e.mspLog),
		})
	}
}

// pruneHit reports whether the member has marked a term generalizing (or
// equal to) one of fs's terms as irrelevant.
func (e *engine) pruneHit(member string, fs fact.Set) bool {
	for _, t := range e.pruned[member] {
		for _, f := range fs {
			if e.sp.Voc.Leq(t, f.S) || e.sp.Voc.Leq(t, f.R) || e.sp.Voc.Leq(t, f.O) {
				return true
			}
		}
	}
	return false
}

// recordAnswer stores a member's first answer to a question in the
// CrowdCache and the aggregator, then updates the node classification
// from the verdict.
func (e *engine) recordAnswer(node assign.Assignment, qKey string, member string,
	sup float64, kind QuestionKind, counted bool) {
	if _, dup := e.cache.Lookup(qKey, member); !dup {
		e.cache.Record(qKey, member, sup, kind)
		e.sinkAnswer(qKey, member, sup, kind, counted)
		e.agg.Record(qKey, member, sup)
		e.observeStopAnswer(qKey, member, sup)
		if counted {
			e.uniqueQ[qKey] = struct{}{}
			e.countAnswer(kind)
			e.answersBy[member]++
		} else {
			e.stats.FreeAnswers++
			e.cfg.Metrics.freeAnswer()
		}
		if e.consistency != nil && !e.banned[member] {
			fs, _ := e.instantiate(node)
			e.consistency.Record(member, fs, sup)
			if e.consistency.Violations(member) > e.cfg.SpamMaxViolations {
				e.banned[member] = true
				e.stats.BannedMembers++
			}
		}
	}
	e.applyVerdict(node, qKey)
}

// observeStopAnswer feeds a recorded answer to the stop policy and applies
// any fresh spammer flag: a flagged member joins the banned set, so
// memberActive and session eligibility exclude them exactly like the
// consistency filter's bans.
func (e *engine) observeStopAnswer(qKey, member string, sup float64) {
	if e.stop == nil {
		return
	}
	e.stop.ObserveAnswer(qKey, member, sup)
	e.cfg.Metrics.stopEstimate(e.stop.Name(), e.stop.Estimate())
	if e.stopW != nil && !e.banned[member] && e.stopW.Flagged(member) {
		e.banned[member] = true
		e.stats.SpamFlagged++
		e.cfg.Metrics.spamFlagged(e.stop.Name())
	}
}

// observeStopDiscovery feeds the end of a member's descent chain — their
// maximal affirmed pattern — to the stop policy's species stream.
func (e *engine) observeStopDiscovery(node assign.Assignment, member string) {
	if e.stop == nil {
		return
	}
	e.stop.ObserveDiscovery(node.Key(), member)
	e.cfg.Metrics.stopEstimate(e.stop.Name(), e.stop.Estimate())
}

// confirmedMSPs counts the significant anchors whose successors are all
// classified (hence confirmed maximal) — the top-k early-stop condition.
func (e *engine) confirmedMSPs() int {
	n := 0
	for _, a := range e.cls.maximalSignificant() {
		confirmed := true
		for _, s := range e.succsOf(e.ns.intern(a)) {
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

func (e *engine) applyVerdict(node assign.Assignment, qKey string) {
	switch e.agg.Verdict(qKey, e.cfg.Theta) {
	case aggregate.Significant:
		if e.cls.status(node) != Significant {
			e.cls.markSignificant(node)
			e.sinkClassified(node, true)
			e.recordChainMax(node) // discovery time for the pace curves
			e.onClassified(node, true)
			e.expand(node)
		}
	case aggregate.Insignificant:
		if e.cls.status(node) != Insignificant {
			e.cls.markInsignificant(node)
			e.sinkClassified(node, false)
			e.onClassified(node, false)
		}
	}
}

// onClassified updates the classified-valid-rows counter for the timeline:
// one order test per not-yet-counted ValidBase row. Untimed runs keep no
// row state and return at once.
func (e *engine) onClassified(a assign.Assignment, significant bool) {
	if e.classifiedRows == nil {
		return
	}
	for i, r := range e.rowNodes {
		if e.classifiedRows[i] {
			continue
		}
		if significant && e.sp.Leq(r, a) || !significant && e.sp.Leq(a, r) {
			e.classifiedRows[i] = true
			e.classifiedN++
		}
	}
}

func termsOf(fs fact.Set) []vocab.Term {
	seen := map[vocab.Term]struct{}{}
	var out []vocab.Term
	for _, f := range fs {
		for _, t := range []vocab.Term{f.S, f.R, f.O} {
			if t == vocab.Any {
				continue
			}
			if _, ok := seen[t]; !ok {
				seen[t] = struct{}{}
				out = append(out, t)
			}
		}
	}
	return out
}

// unclassifiedSuccessors lists node's immediate successors that are still
// unclassified, generating them into the pool.
func (e *engine) unclassifiedSuccessors(node assign.Assignment) []assign.Assignment {
	var out []assign.Assignment
	for _, s := range e.succsOf(e.ns.intern(node)) {
		if e.cls.status(s) == Unclassified {
			e.addNode(s)
			out = append(out, s)
		}
	}
	return out
}

// recordChainMax records node as the maximum of a member's descent chain
// (line 8 of Algorithm 1).
func (e *engine) recordChainMax(node assign.Assignment) {
	k := node.Key()
	if _, ok := e.mspLog[k]; !ok {
		e.mspLog[k] = e.stats.TotalQuestions
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

// forceClassify decides a node from the aggregator's current mean.
func (e *engine) forceClassify(node assign.Assignment) {
	_, qKey := e.instantiate(node)
	e.stats.ForcedClassifications++
	if e.agg.Mean(qKey) >= e.cfg.Theta-aggregate.Eps && e.agg.Answers(qKey) > 0 {
		e.cls.markSignificant(node)
		e.sinkClassified(node, true)
		e.recordChainMax(node)
		e.onClassified(node, true)
		e.expand(node)
	} else {
		e.cls.markInsignificant(node)
		e.sinkClassified(node, false)
		e.onClassified(node, false)
	}
}

// settleFrontier force-classifies, in the run's order and without asking
// a single further question, every unclassified pool node that already
// holds recorded answers: an early stop keeps the evidence it paid for
// instead of discarding partially-sampled nodes. Nodes with no answers at
// all stay unclassified — there is no evidence to settle them with.
func (e *engine) settleFrontier() {
	for {
		e.drainExpansions()
		node, ok := e.pickUnclassified(true)
		if !ok {
			return
		}
		e.stats.StopSettled++
		e.forceClassify(node)
	}
}

// result finalizes the run.
func (e *engine) result() *Result {
	e.stats.UniqueQuestions = len(e.uniqueQ)
	if e.stop != nil {
		e.stats.StopEstimate = e.stop.Estimate()
		if e.stats.StoppedEarly {
			e.settleFrontier()
			// Pool nodes still unclassified after settling never received
			// an answer: each would have cost at least one more crowd
			// answer, so the count is a lower bound on the questions saved.
			saved := 0
			for _, id := range e.cls.uncl {
				if int(id) < len(e.inPool) && e.inPool[id] {
					saved++
				}
			}
			e.stats.StopUnclassified = saved
			e.cfg.Metrics.stopSaved(e.stop.Name(), saved)
		}
	}
	msps := e.cls.maximalSignificant()
	sort.Slice(msps, func(i, j int) bool { return msps[i].Key() < msps[j].Key() })
	var valid []assign.Assignment
	for _, m := range msps {
		if e.sp.IsValid(m) {
			valid = append(valid, m)
		}
	}
	mspQ := make(map[string]int, len(msps))
	for _, m := range msps {
		if q, ok := e.mspLog[m.Key()]; ok {
			mspQ[m.Key()] = q
		} else {
			mspQ[m.Key()] = e.stats.TotalQuestions
		}
	}
	answersBy := make(map[string]int, len(e.answersBy))
	for m, n := range e.answersBy {
		answersBy[m] = n
	}
	return &Result{
		MSPs:            msps,
		ValidMSPs:       valid,
		Stats:           e.stats,
		Cache:           e.cache,
		MSPQuestion:     mspQ,
		InsigMinimal:    len(e.cls.insig),
		AnswersByMember: answersBy,
	}
}

// AllSignificant enumerates the significant valid assignments implied by a
// result (the SELECT ... ALL form): the valid base assignments below some
// MSP, plus the valid multiplicity nodes among the MSPs themselves and their
// recorded predecessors. It is computed from the MSP set by downward
// closure over the valid base rows.
func AllSignificant(sp *assign.Space, msps []assign.Assignment) []assign.Assignment {
	var out []assign.Assignment
	seen := map[string]struct{}{}
	add := func(a assign.Assignment) {
		k := a.Key()
		if _, dup := seen[k]; dup {
			return
		}
		seen[k] = struct{}{}
		out = append(out, a)
	}
	for _, row := range sp.ValidBase {
		r := sp.Singleton(row...)
		for _, m := range msps {
			if sp.Leq(r, m) {
				add(r)
				break
			}
		}
	}
	for _, m := range msps {
		if sp.IsValid(m) {
			add(m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}
