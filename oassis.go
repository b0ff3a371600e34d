// Package oassis is a query-driven crowd-mining engine: a Go implementation
// of "OASSIS: Query Driven Crowd Mining" (SIGMOD 2014). Users pose
// OASSIS-QL queries that combine an ontological selection (the WHERE
// clause, evaluated over a knowledge base) with data patterns to be mined
// from a crowd of members with personal, unrecorded histories (the
// SATISFYING clause). The engine interactively chooses questions for crowd
// members, infers the classification of whole regions of the answer space
// from each answer, and returns the maximal significant patterns (MSPs) —
// concise, redundancy-free answers such as "go biking in Central Park and
// eat at Maoz Vegetarian (tip: rent the bikes at the Boathouse)".
//
// The root package is a facade over the internal engine. A minimal session:
//
//	db := oassis.SampleDB()                         // the paper's Figure 1 ontology
//	q, _ := oassis.ParseQuery(queryText)            // OASSIS-QL (Figure 2 syntax)
//	crowd := []oassis.Member{ /* your members */ }
//	res, _ := oassis.Exec(db, q, crowd, oassis.WithAnswersPerQuestion(5))
//	for _, msp := range res.MSPs { fmt.Println(msp.Text) }
//
// Crowd members implement the Member interface; SimulatedMember builds one
// from a textual personal history for testing and simulation.
package oassis

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"

	"oassis/internal/aggregate"
	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/fact"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/panel"
	"oassis/internal/plan"
	"oassis/internal/rdfio"
	"oassis/internal/vocab"
)

// Triple is one fact in textual form. The special name "[]" denotes the
// anything wildcard.
type Triple struct {
	Subject, Relation, Object string
}

func (t Triple) String() string {
	return fmt.Sprintf("%s %s %s", t.Subject, t.Relation, t.Object)
}

// DB bundles a vocabulary and an ontology. Once frozen, a DB lazily
// carries a shared core.Domain — the read-only (vocabulary, ontology,
// fingerprint, plan cache) bundle that all sessions over this DB
// reference — so the same query compiles once and is reused.
type DB struct {
	voc  *vocab.Vocabulary
	onto *ontology.Ontology

	domMu sync.Mutex
	dom   *core.Domain
}

// domain returns the DB's shared execution domain, building it on first
// use after Freeze. The error path is not latched: a DB used before
// Freeze reports ErrNotFrozen and works normally once frozen.
func (db *DB) domain() (*core.Domain, error) {
	if !db.voc.Frozen() {
		return nil, ErrNotFrozen
	}
	db.domMu.Lock()
	defer db.domMu.Unlock()
	if db.dom == nil {
		dom, err := core.NewDomain(db.voc, db.onto)
		if err != nil {
			return nil, err
		}
		db.dom = dom
	}
	return db.dom, nil
}

// NewDB returns an empty database for programmatic construction. Call
// Freeze before executing queries.
func NewDB() *DB {
	v := vocab.New()
	return &DB{voc: v, onto: ontology.New(v)}
}

// SampleDB returns the paper's running-example ontology (Figure 1).
func SampleDB() *DB {
	s := ontology.NewSample()
	return &DB{voc: s.Voc, onto: s.Onto}
}

// LoadOntology reads a Turtle-subset document (see the README for the
// format) and returns a frozen DB.
func LoadOntology(r io.Reader) (*DB, error) {
	v, o, err := rdfio.Load(r)
	if err != nil {
		return nil, err
	}
	return &DB{voc: v, onto: o}, nil
}

// WriteOntology serializes the DB in the same Turtle subset.
func (db *DB) WriteOntology(w io.Writer) error { return rdfio.Write(w, db.onto) }

// AddFact adds a universal fact, interning new element/relation names.
func (db *DB) AddFact(subject, relation, object string) error {
	s, err := db.voc.AddElement(subject)
	if err != nil {
		return err
	}
	r, err := db.voc.AddRelation(relation)
	if err != nil {
		return err
	}
	o, err := db.voc.AddElement(object)
	if err != nil {
		return err
	}
	return db.onto.Add(fact.Fact{S: s, R: r, O: o})
}

// AddSubsumption records that specific is a subClassOf/instanceOf-style
// specialization of general, both as an ontology fact and in the semantic
// order (Example 2.3 of the paper).
func (db *DB) AddSubsumption(general, specific, relation string) error {
	g, err := db.voc.AddElement(general)
	if err != nil {
		return err
	}
	s, err := db.voc.AddElement(specific)
	if err != nil {
		return err
	}
	r, err := db.voc.AddRelation(relation)
	if err != nil {
		return err
	}
	return db.onto.AddSubsumption(g, s, r)
}

// AddRelationOrder records general ≤ specific between two relations (e.g.
// nearBy ≤ inside: everything inside a place is near it).
func (db *DB) AddRelationOrder(general, specific string) error {
	g, err := db.voc.AddRelation(general)
	if err != nil {
		return err
	}
	s, err := db.voc.AddRelation(specific)
	if err != nil {
		return err
	}
	return db.voc.AddOrder(g, s)
}

// AddLabel attaches a hasLabel label to an element.
func (db *DB) AddLabel(element, label string) error {
	e, err := db.voc.AddElement(element)
	if err != nil {
		return err
	}
	return db.onto.AddLabel(e, label)
}

// AddTerm interns an element name without any facts (vocabulary-only terms
// such as Boathouse in the paper, which appear in histories but not in the
// ontology).
func (db *DB) AddTerm(element string) error {
	_, err := db.voc.AddElement(element)
	return err
}

// AddRelation interns a relation name without any facts (relations that
// appear only in personal histories and SATISFYING patterns, not in the
// ontology itself).
func (db *DB) AddRelation(name string) error {
	_, err := db.voc.AddRelation(name)
	return err
}

// Freeze validates the order relations and makes the DB immutable; it must
// be called before Exec (LoadOntology and SampleDB return frozen DBs).
func (db *DB) Freeze() error { return db.voc.Freeze() }

// triple converts an internal fact to the textual form.
func (db *DB) triple(f fact.Fact) Triple {
	name := func(t vocab.Term) string {
		if t == vocab.Any {
			return "[]"
		}
		return db.voc.Name(t)
	}
	return Triple{Subject: name(f.S), Relation: name(f.R), Object: name(f.O)}
}

func (db *DB) triples(fs fact.Set) []Triple {
	out := make([]Triple, len(fs))
	for i, f := range fs {
		out[i] = db.triple(f)
	}
	return out
}

// Query is a parsed OASSIS-QL query.
type Query struct {
	ast *oassisql.Query
}

// ParseQuery parses OASSIS-QL text (the Figure 2 syntax).
func ParseQuery(src string) (*Query, error) {
	ast, err := oassisql.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Query{ast: ast}, nil
}

// String renders the query in canonical OASSIS-QL syntax.
func (q *Query) String() string { return q.ast.String() }

// Support returns the query's support threshold.
func (q *Query) Support() float64 { return q.ast.Support }

// SpecializeResponse is the structured answer to a specialization
// question. Exactly one outcome applies: Chosen (the member picked the
// candidate at Choice, doing it with the given Frequency), Declined (the
// member prefers concrete questions), or neither ("none of these"). The
// struct form leaves room for future answer enrichments such as
// volunteered MORE-facts.
type SpecializeResponse struct {
	// Choice indexes the picked candidate; meaningful only when Chosen.
	Choice int
	// Frequency is how often the member does the picked candidate, in
	// [0, 1].
	Frequency float64
	// Chosen reports that a candidate was picked.
	Chosen bool
	// Declined reports that the member wants a concrete question instead.
	Declined bool
}

// Choose is a SpecializeResponse picking candidate idx with the given
// frequency.
func Choose(idx int, freq float64) SpecializeResponse {
	return SpecializeResponse{Choice: idx, Frequency: freq, Chosen: true}
}

// NoneOfThese is the SpecializeResponse rejecting every candidate.
func NoneOfThese() SpecializeResponse { return SpecializeResponse{} }

// DeclineSpecialization is the SpecializeResponse asking for concrete
// questions instead.
func DeclineSpecialization() SpecializeResponse {
	return SpecializeResponse{Declined: true}
}

// Member is a crowd member: the engine poses it questions about fact-sets.
// Implementations with human backends should translate the triples to
// natural language (see Questionnaire for templates).
type Member interface {
	// ID identifies the member.
	ID() string
	// HowOften answers a concrete question: how frequently the given
	// combination of facts occurs in the member's history, in [0, 1].
	HowOften(facts []Triple) float64
	// Specialize answers a specialization question: pick the candidate the
	// member does significantly often, report "none of these", or decline
	// in favor of concrete questions (see SpecializeResponse).
	Specialize(candidates [][]Triple) SpecializeResponse
	// Irrelevant optionally marks one of the given terms as irrelevant to
	// the member (user-guided pruning): everything involving the term is
	// then assumed never to occur for them.
	Irrelevant(terms []string) (string, bool)
}

// Prior is a best-guess answer attached to a panel question before the
// member sees it: the guessed frequency, how much to trust it, and where
// it came from ("aggregate" or "ontology"). A high-confidence prior
// renders as a one-tap confirmation; lower confidences fall back to an
// open question with the guess pre-selected.
type Prior = crowd.Prior

// Confidence grades how much a Prior's guess should be trusted.
type Confidence = crowd.Confidence

// Confidence grades, from no usable guess to one-tap confirmation.
const (
	ConfidenceNone   = crowd.ConfidenceNone
	ConfidenceLow    = crowd.ConfidenceLow
	ConfidenceMedium = crowd.ConfidenceMedium
	ConfidenceHigh   = crowd.ConfidenceHigh
)

// PanelQuestion is one concrete question inside a member's panel: the
// questioned pattern plus its prior guess.
type PanelQuestion struct {
	Facts []Triple
	Prior Prior
}

// PanelMember is the optional batch-answering extension of Member: a
// member that can answer a whole panel of concrete questions in one round
// trip (a confirmation screen, a single crowd-platform HIT). AnswerPanel
// returns one frequency in [0, 1] per question, index-aligned. Members
// that do not implement it are asked per question; AdaptMember wraps one
// explicitly.
type PanelMember interface {
	Member
	AnswerPanel(qs []PanelQuestion) []float64
}

// AdaptMember wraps a single-question Member into a PanelMember whose
// AnswerPanel answers each item with HowOften. Use it where a PanelMember
// is required and per-question answering is acceptable.
func AdaptMember(m Member) PanelMember {
	if pm, ok := m.(PanelMember); ok {
		return pm
	}
	return &adaptedMember{m}
}

type adaptedMember struct{ Member }

func (a *adaptedMember) AnswerPanel(qs []PanelQuestion) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = a.HowOften(q.Facts)
	}
	return out
}

// memberAdapter bridges the facade Member to the internal crowd.Member.
type memberAdapter struct {
	db *DB
	m  Member
}

// newMemberAdapter bridges a facade member to the internal crowd.Member,
// preserving the optional panel capability: a PanelMember comes back as a
// crowd.Panelist, so the batching layer hands it whole panels.
func newMemberAdapter(db *DB, m Member) crowd.Member {
	a := memberAdapter{db: db, m: m}
	if pm, ok := m.(PanelMember); ok {
		return &panelistAdapter{memberAdapter: a, pm: pm}
	}
	return &a
}

// panelistAdapter additionally implements crowd.Panelist for facade
// members that batch-answer.
type panelistAdapter struct {
	memberAdapter
	pm PanelMember
}

func (a *panelistAdapter) AnswerPanel(qs []crowd.PanelQuestion) []float64 {
	out := make([]PanelQuestion, len(qs))
	for i, q := range qs {
		out[i] = PanelQuestion{Facts: a.db.triples(q.Facts), Prior: q.Prior}
	}
	return a.pm.AnswerPanel(out)
}

func (a *memberAdapter) ID() string { return a.m.ID() }

func (a *memberAdapter) Concrete(fs fact.Set) float64 {
	return a.m.HowOften(a.db.triples(fs))
}

func (a *memberAdapter) ChooseSpecialization(candidates []fact.Set) crowd.SpecializeResponse {
	cs := make([][]Triple, len(candidates))
	for i, c := range candidates {
		cs[i] = a.db.triples(c)
	}
	r := a.m.Specialize(cs)
	return crowd.SpecializeResponse{
		Choice:   r.Choice,
		Support:  r.Frequency,
		Chosen:   r.Chosen,
		Declined: r.Declined,
	}
}

func (a *memberAdapter) Irrelevant(terms []vocab.Term) (vocab.Term, bool) {
	names := make([]string, len(terms))
	for i, t := range terms {
		names[i] = a.db.voc.Name(t)
	}
	name, ok := a.m.Irrelevant(names)
	if !ok {
		return vocab.None, false
	}
	t, found := a.db.voc.Lookup(name)
	if !found {
		return vocab.None, false
	}
	return t, true
}

// SimulatedMember builds a member whose virtual personal history is given
// as textual transactions, e.g.
//
//	oassis.SimulatedMember(db, "u1",
//	    "Basketball doAt Central Park. Falafel eatAt Maoz Veg",
//	    "Feed a Monkey doAt Bronx Zoo. Pasta eatAt Pine",
//	)
//
// Answers use the paper's five-level frequency scale. Options adjust the
// behavior (see SimOption).
func SimulatedMember(db *DB, id string, transactions ...string) (Member, error) {
	pdb := crowd.NewPersonalDB(db.voc)
	for _, t := range transactions {
		fs, err := fact.Parse(db.voc, t)
		if err != nil {
			return nil, err
		}
		pdb.Add(fs)
	}
	sim := &crowd.SimMember{Name: id, DB: pdb, Disc: crowd.Exact, SpecializeProb: 1, Theta: 0.1}
	return &simWrapper{db: db, sim: sim}, nil
}

// simWrapper exposes an internal SimMember through the facade interface.
type simWrapper struct {
	db  *DB
	sim *crowd.SimMember
}

func (w *simWrapper) ID() string { return w.sim.Name }

func (w *simWrapper) HowOften(facts []Triple) float64 {
	fs, err := w.db.factSet(facts)
	if err != nil {
		return 0
	}
	return w.sim.Concrete(fs)
}

func (w *simWrapper) Specialize(candidates [][]Triple) SpecializeResponse {
	sets := make([]fact.Set, len(candidates))
	for i, c := range candidates {
		fs, err := w.db.factSet(c)
		if err != nil {
			return DeclineSpecialization()
		}
		sets[i] = fs
	}
	r := w.sim.ChooseSpecialization(sets)
	return SpecializeResponse{
		Choice:    r.Choice,
		Frequency: r.Support,
		Chosen:    r.Chosen,
		Declined:  r.Declined,
	}
}

func (w *simWrapper) Irrelevant(terms []string) (string, bool) {
	ts := make([]vocab.Term, 0, len(terms))
	for _, n := range terms {
		if t, ok := w.db.voc.Lookup(n); ok {
			ts = append(ts, t)
		}
	}
	t, ok := w.sim.Irrelevant(ts)
	if !ok {
		return "", false
	}
	return w.db.voc.Name(t), true
}

// factSet converts triples to an internal fact-set.
func (db *DB) factSet(ts []Triple) (fact.Set, error) {
	out := make(fact.Set, 0, len(ts))
	lookup := func(name string, kind vocab.Kind) (vocab.Term, error) {
		if name == "[]" {
			return vocab.Any, nil
		}
		t, ok := db.voc.Lookup(name)
		if !ok {
			return vocab.None, ErrUnknownTerm{Name: name}
		}
		if db.voc.KindOf(t) != kind {
			return vocab.None, fmt.Errorf("oassis: %q has the wrong kind", name)
		}
		return t, nil
	}
	for _, tr := range ts {
		s, err := lookup(tr.Subject, vocab.Element)
		if err != nil {
			return nil, err
		}
		r, err := lookup(tr.Relation, vocab.Relation)
		if err != nil {
			return nil, err
		}
		o, err := lookup(tr.Object, vocab.Element)
		if err != nil {
			return nil, err
		}
		out = append(out, fact.Fact{S: s, R: r, O: o})
	}
	return out.Canon(), nil
}

// Answer is one mined pattern.
type Answer struct {
	// Facts is the pattern's fact-set.
	Facts []Triple
	// Text is the fact-set in the paper's notation.
	Text string
	// Bindings maps each mining variable to its value set (the SELECT
	// VARIABLES view of the same answer; sets have more than one value when
	// the query used multiplicities).
	Bindings map[string][]string
	// Valid reports whether the pattern is valid w.r.t. the query's WHERE
	// clause (maximal significant patterns may be slightly more general).
	Valid bool
}

// Stats summarizes the crowd effort of a run.
type Stats struct {
	TotalQuestions  int
	UniqueQuestions int
	Concrete        int
	Specialization  int
	NoneOfThese     int
	PruningClicks   int
	GeneratedNodes  int
	// PrimedAnswers counts answers replayed from a WithStore store
	// instead of asked live (they are included in TotalQuestions).
	PrimedAnswers int
	// StoreErrors counts failed writes to a WithStore store; non-zero
	// means the store is missing records (the run itself kept going).
	StoreErrors int
	// BannedMembers counts members the WithSpamFilter filter banned. A
	// banned member is asked nothing more; the answers they gave before
	// the ban still count.
	BannedMembers int
	// StoppedEarly reports that the WithEarlyStop rule ended the run
	// before every generated pattern was classified (it saw the crowd
	// stop volunteering new patterns).
	StoppedEarly bool
	// StopEstimate is the WithEarlyStop rule's final estimate in [0, 1]:
	// the Good–Turing coverage of the crowd's discoveries, 0 without the
	// option.
	StopEstimate float64
	// StopSettled counts patterns an early stop classified from answers
	// already in hand (the frontier settlement pass) instead of asking
	// further questions: those whose verdict no missing answer could
	// change.
	StopSettled int
	// StopUnclassified counts generated patterns an early stop left
	// unclassified (unanswered, or answered too little to decide) — a
	// lower bound on the crowd answers saved.
	StopUnclassified int
}

// Result of executing a query.
type Result struct {
	// MSPs are the maximal significant patterns (the query output; only
	// valid ones unless the query asked for ALL).
	MSPs []Answer
	// AllMSPs additionally includes maximal significant patterns that are
	// not valid w.r.t. the WHERE clause (the set M of Algorithm 1).
	AllMSPs []Answer
	// AllSignificant lists every significant valid assignment when the
	// query used SELECT ... ALL.
	AllSignificant []Answer
	Stats          Stats
}

// options collects Exec options.
type options struct {
	answersPerQuestion  int
	specializationRatio float64
	pruning             bool
	seed                int64
	maxQuestions        int
	maxPerMember        int
	moreCandidates      []Triple
	topK                int
	spamFilter          bool
	earlyStop           bool
	parallelism         int
	panelSize           int
	noPlanCache         bool
	store               *Store
	metrics             *Metrics
	tracer              Tracer
}

// Option configures Exec.
type Option func(*options)

// WithAnswersPerQuestion sets how many member answers classify a question
// (the paper's crowd experiments use 5). Default 1.
func WithAnswersPerQuestion(k int) Option {
	return func(o *options) { o.answersPerQuestion = k }
}

// WithSpecializationRatio sets the probability of posing specialization
// questions instead of concrete ones while descending. Default 0.
func WithSpecializationRatio(r float64) Option {
	return func(o *options) { o.specializationRatio = r }
}

// WithPruning enables user-guided pruning clicks.
func WithPruning() Option { return func(o *options) { o.pruning = true } }

// WithSeed seeds the engine's random choices (default 1; runs are always
// deterministic for a fixed seed).
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithMaxQuestions caps the total number of crowd answers.
func WithMaxQuestions(n int) Option { return func(o *options) { o.maxQuestions = n } }

// WithMaxQuestionsPerMember caps each member's effort.
func WithMaxQuestionsPerMember(n int) Option { return func(o *options) { o.maxPerMember = n } }

// WithMoreCandidates seeds the MORE-fact candidate pool (facts crowd
// members may volunteer as additional advice).
func WithMoreCandidates(ts ...Triple) Option {
	return func(o *options) { o.moreCandidates = ts }
}

// WithTopK stops mining as soon as k maximal significant patterns are
// confirmed (the incremental top-k extension of the paper's Section 8).
func WithTopK(k int) Option { return func(o *options) { o.topK = k } }

// WithSpamFilter enables the crowd-member filter of Section 4.2: once a
// question is decided, every answer to it is graded against the median
// answer, and a member whose answers too rarely agree with it (within one
// scale step) is banned from further questions. Answers a banned member
// already gave still count.
func WithSpamFilter() Option {
	return func(o *options) { o.spamFilter = true }
}

// WithEarlyStop ends open-world enumeration early: once the crowd has
// made 30 distinct discoveries and fewer than 27.5% of them are patterns
// only one member reported (Good–Turing coverage above 0.725), the run
// stops asking. Without it the run asks until the significance thresholds
// settle on every generated pattern (the paper's behavior). Like WithTopK
// it is a run option: the compiled plan, and its fingerprint, are the
// same with or without it.
func WithEarlyStop() Option { return func(o *options) { o.earlyStop = true } }

// WithoutPlanCache bypasses the DB's shared plan cache: the query is
// recompiled from scratch and the result is not cached. Mined results
// are bit-identical either way; the option exists for benchmarks and for
// callers that compile many one-off queries they will never rerun.
func WithoutPlanCache() Option { return func(o *options) { o.noPlanCache = true } }

// WithParallelism keeps up to p questions in flight at once, dispatching
// them to members on worker goroutines (at most one question — or, with
// WithPanelSize, one panel — per member at a time). Mined results are
// identical to the sequential run for members whose answers depend only
// on the question asked (true for humans and the simulated members); only
// wall clock changes. Default 1 (sequential).
func WithParallelism(p int) Option { return func(o *options) { o.parallelism = p } }

// WithPanelSize switches execution to panel-first batching: up to n
// currently answerable questions are grouped into one prior-primed panel
// per member and answered in one round trip (PanelMember implementations
// get the whole panel at once). Mined results are bit-identical to the
// one-question default; only the number of member round trips changes.
// Composes with WithParallelism, which then bounds panels in flight.
// Default 0 (one question per round trip).
func WithPanelSize(n int) Option { return func(o *options) { o.panelSize = n } }

// compilePlan resolves the query into a plan, through the DB's shared
// plan cache unless WithoutPlanCache was given.
func compilePlan(db *DB, q *Query, o *options) (*plan.Plan, error) {
	dom, err := db.domain()
	if err != nil {
		return nil, err
	}
	var m *plan.CacheMetrics
	if o.metrics != nil {
		m = o.metrics.plan
	}
	if o.noPlanCache {
		return plan.Compile(dom.Voc, dom.Onto, q.ast, dom.Fingerprint())
	}
	pl, _, err := dom.CompileVariant(q.ast, "", "", m)
	return pl, err
}

// planConfig turns (DB, plan, options) into the engine configuration and
// a fresh per-run assignment space shared by Exec, ExecContext,
// ExecPlan and NewSession. The plan's immutable parts are shared; the
// space's memo state is private to the run.
func planConfig(db *DB, pl *plan.Plan, o *options) (*assign.Space, core.Config, error) {
	var cfg core.Config
	sp := pl.NewSpace()
	if pl.More && len(o.moreCandidates) > 0 {
		pool, err := db.factSet(o.moreCandidates)
		if err != nil {
			return nil, cfg, err
		}
		sp.MoreCandidates = pool
	}
	cfg = core.Config{
		Space:                 sp,
		Theta:                 pl.Support,
		Agg:                   aggregate.NewFixedSample(o.answersPerQuestion),
		SpecializationRatio:   o.specializationRatio,
		EnablePruning:         o.pruning,
		MaxQuestions:          o.maxQuestions,
		MaxQuestionsPerMember: o.maxPerMember,
		MaxMSPs:               o.topK,
		SpamFilter:            o.spamFilter,
		PanelSpeculation:      o.panelSize,
		Rng:                   rand.New(rand.NewSource(o.seed)),
	}
	if o.earlyStop {
		cfg.Stop = aggregate.NewSpeciesStop()
	}
	if o.store != nil {
		cfg.Store = o.store.inner
		if o.store.prime.Len() > 0 {
			cfg.Prime = o.store.prime
		}
	}
	if o.metrics != nil {
		cfg.Metrics = o.metrics.core
	}
	cfg.Tracer = o.tracer
	return sp, cfg, nil
}

// compile turns (DB, query, options) into a compiled plan plus the engine
// configuration: the planning pipeline of Exec/ExecContext/NewSession.
func compile(db *DB, q *Query, o *options) (*plan.Plan, *assign.Space, core.Config, error) {
	pl, err := compilePlan(db, q, o)
	if err != nil {
		return nil, nil, core.Config{}, err
	}
	sp, cfg, err := planConfig(db, pl, o)
	return pl, sp, cfg, err
}

// convertResult maps an engine result to the facade's textual form. all
// mirrors SELECT ... ALL.
func convertResult(db *DB, all bool, sp *assign.Space, res *core.Result) *Result {
	out := &Result{Stats: Stats{
		TotalQuestions:   res.Stats.TotalQuestions,
		UniqueQuestions:  res.Stats.UniqueQuestions,
		Concrete:         res.Stats.Concrete,
		Specialization:   res.Stats.Specialization,
		NoneOfThese:      res.Stats.NoneOfThese,
		PruningClicks:    res.Stats.Pruning,
		GeneratedNodes:   res.Stats.GeneratedNodes,
		PrimedAnswers:    res.Stats.PrimedAnswers,
		StoreErrors:      res.Stats.StoreErrors,
		BannedMembers:    res.Stats.BannedMembers,
		StoppedEarly:     res.Stats.StoppedEarly,
		StopEstimate:     res.Stats.StopEstimate,
		StopSettled:      res.Stats.StopSettled,
		StopUnclassified: res.Stats.StopUnclassified,
	}}
	toAnswer := func(a assign.Assignment, valid bool) Answer {
		fs := sp.Instantiate(a)
		bindings := make(map[string][]string, len(sp.Vars))
		for i, vs := range sp.Vars {
			names := make([]string, len(a.Vals[i]))
			for j, t := range a.Vals[i] {
				names[j] = db.voc.Name(t)
			}
			bindings[vs.Name] = names
		}
		return Answer{Facts: db.triples(fs), Text: fs.Format(db.voc),
			Bindings: bindings, Valid: valid}
	}
	for _, m := range res.MSPs {
		out.AllMSPs = append(out.AllMSPs, toAnswer(m, sp.IsValid(m)))
	}
	for _, m := range res.ValidMSPs {
		out.MSPs = append(out.MSPs, toAnswer(m, true))
	}
	if all {
		for _, a := range core.AllSignificant(sp, res.MSPs) {
			out.AllSignificant = append(out.AllSignificant, toAnswer(a, sp.IsValid(a)))
		}
	}
	return out
}

// Exec evaluates the query over the DB with the given crowd.
func Exec(db *DB, q *Query, members []Member, opts ...Option) (*Result, error) {
	return ExecContext(context.Background(), db, q, members, opts...)
}

// ExecContext is Exec honoring a context: when ctx is canceled the run
// stops asking questions, discards any answer still in flight, and returns
// ctx's error.
func ExecContext(ctx context.Context, db *DB, q *Query, members []Member, opts ...Option) (*Result, error) {
	o := options{answersPerQuestion: 1, seed: 1, parallelism: 1}
	for _, opt := range opts {
		opt(&o)
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	pl, err := compilePlan(db, q, &o)
	if err != nil {
		return nil, err
	}
	return execCompiled(ctx, db, pl, members, &o)
}

// Plan is a compiled, immutable query plan: the result of Compile, ready
// to execute any number of times (concurrently, over different crowds)
// with ExecPlan. Its JSON serialization is the reviewable IR; its
// fingerprint is the content address the plan cache and the durable
// store's drift detection use.
type Plan struct {
	inner *plan.Plan
}

// Fingerprint returns the plan's content address ("sha256:…" over the
// canonical serialization).
func (p *Plan) Fingerprint() string { return p.inner.Fingerprint() }

// DomainFingerprint returns the fingerprint of the domain (vocabulary +
// ontology) the plan was compiled against.
func (p *Plan) DomainFingerprint() string { return p.inner.DomainFP }

// Query returns the canonical text of the compiled query.
func (p *Plan) Query() string { return p.inner.QueryText }

// MarshalJSON returns the plan IR with terms resolved to names.
func (p *Plan) MarshalJSON() ([]byte, error) { return p.inner.MarshalJSON() }

// Compile compiles q over db into an immutable Plan, consulting the DB's
// shared plan cache (compiling the same query text over the same frozen
// domain twice returns the cached plan). Options that matter here:
// WithMetrics records cache hits/misses and compile latency;
// WithoutPlanCache forces a fresh compilation.
func Compile(db *DB, q *Query, opts ...Option) (*Plan, error) {
	o := options{answersPerQuestion: 1, seed: 1, parallelism: 1}
	for _, opt := range opts {
		opt(&o)
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	pl, err := compilePlan(db, q, &o)
	if err != nil {
		return nil, err
	}
	return &Plan{inner: pl}, nil
}

// ExecPlan executes a compiled plan over the DB with the given crowd. The
// plan must have been compiled against this DB's current domain;
// executing a plan against a drifted domain is an error, not a wrong
// answer. Results are bit-identical to Exec of the original query.
func ExecPlan(db *DB, p *Plan, members []Member, opts ...Option) (*Result, error) {
	return ExecPlanContext(context.Background(), db, p, members, opts...)
}

// ExecPlanContext is ExecPlan honoring a context.
func ExecPlanContext(ctx context.Context, db *DB, p *Plan, members []Member, opts ...Option) (*Result, error) {
	if p == nil || p.inner == nil {
		return nil, fmt.Errorf("oassis: ExecPlan of a nil plan")
	}
	o := options{answersPerQuestion: 1, seed: 1, parallelism: 1}
	for _, opt := range opts {
		opt(&o)
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	dom, err := db.domain()
	if err != nil {
		return nil, err
	}
	if fp := p.inner.DomainFP; fp != dom.Fingerprint() {
		return nil, fmt.Errorf("oassis: plan was compiled against a different domain (plan %s, db %s)",
			fp, dom.Fingerprint())
	}
	return execCompiled(ctx, db, p.inner, members, &o)
}

// execCompiled is the shared execution tail of ExecContext and
// ExecPlanContext: build the per-run engine configuration from the plan
// and drive the crowd.
func execCompiled(ctx context.Context, db *DB, pl *plan.Plan, members []Member, o *options) (*Result, error) {
	sp, cfg, err := planConfig(db, pl, o)
	if err != nil {
		return nil, err
	}
	cfg.Canceled = func() bool { return ctx.Err() != nil }
	cfg.Members = make([]crowd.Member, len(members))
	for i, m := range members {
		cfg.Members[i] = newMemberAdapter(db, m)
	}
	var res *core.Result
	if o.panelSize > 0 || o.parallelism > 1 {
		// Dispatched: batch the answerable questions into prior-primed
		// per-member panels (one question each without WithPanelSize);
		// parallelism bounds panels in flight.
		res, _ = panel.Run(cfg, max(o.panelSize, 1), o.parallelism)
	} else {
		res = core.Run(cfg)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return convertResult(db, pl.All, sp, res), nil
}

// Questionnaire renders fact-sets as natural-language questions using the
// per-relation templates of the paper's UI (§6.2).
type Questionnaire struct {
	db  *DB
	tpl *crowd.Templates
}

// NewQuestionnaire returns a questionnaire with the default templates
// (doAt, eatAt) over the DB's vocabulary.
func NewQuestionnaire(db *DB) *Questionnaire {
	return &Questionnaire{db: db, tpl: crowd.NewTemplates(db.voc)}
}

// SetTemplate installs a relation template with two %s verbs, e.g.
// "drink %s with %s".
func (q *Questionnaire) SetTemplate(relation, format string) {
	q.tpl.ByRelation[relation] = format
}

// Concrete renders "How often do you … and also …?" for the triples.
func (q *Questionnaire) Concrete(facts []Triple) (string, error) {
	fs, err := q.db.factSet(facts)
	if err != nil {
		return "", err
	}
	return q.tpl.Concrete(fs), nil
}

// Scale returns the five-point answer scale with its numeric
// interpretation ("never" … "very often").
func Scale() []string {
	out := make([]string, len(crowd.AnswerScale))
	for i, a := range crowd.AnswerScale {
		out[i] = fmt.Sprintf("%s (%.2f)", a.Label, a.Support)
	}
	return out
}

// FormatAnswer renders an Answer for display, marking invalid (generalized)
// patterns.
func FormatAnswer(a Answer) string {
	if a.Valid {
		return a.Text
	}
	return a.Text + "  [generalized]"
}

// ParseTriples parses "S r O. S2 r2 O2" text into triples using the DB's
// vocabulary (multi-word names are resolved like in the paper's Table 3).
func (db *DB) ParseTriples(text string) ([]Triple, error) {
	fs, err := fact.Parse(db.voc, text)
	if err != nil {
		return nil, err
	}
	return db.triples(fs), nil
}

// Terms lists all element names in the DB, sorted; useful for building UIs.
func (db *DB) Terms() []string {
	var out []string
	for t := 0; t < db.voc.Len(); t++ {
		if db.voc.KindOf(vocab.Term(t)) == vocab.Element {
			out = append(out, db.voc.Name(vocab.Term(t)))
		}
	}
	sort.Strings(out)
	return out
}

// Version of the library.
const Version = "1.0.0"
