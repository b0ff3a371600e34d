package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"oassis/internal/aggregate"
	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/fact"
	"oassis/internal/plan"
	"oassis/internal/vocab"
)

// queryInput is one generated mining input. Every call to config and
// newCrowd returns a fresh lattice, aggregator, engine RNG and crowd, each
// identical to the last, so any number of runs over the input ask the same
// questions and mine the same MSPs.
type queryInput struct {
	pl        *plan.Plan
	theta     float64
	sample    int     // answers per question (aggregate.FixedSample)
	specRatio float64 // core.Config.SpecializationRatio
	pruning   bool
	rngSeed   int64 // engine RNG seed; 0 runs without one
	newCrowd  func() []crowd.Member
	ref       reference
}

func (in *queryInput) config() core.Config {
	cfg := core.Config{
		Space:               in.pl.NewSpace(),
		Theta:               in.theta,
		Agg:                 aggregate.NewFixedSample(in.sample),
		SpecializationRatio: in.specRatio,
		EnablePruning:       in.pruning,
	}
	if in.rngSeed != 0 {
		cfg.Rng = rand.New(rand.NewSource(in.rngSeed))
	}
	return cfg
}

// reference is what core.Run mines from an input; every measured run over
// the same input must reproduce it.
type reference struct {
	msps      string // canonical MSP keys
	mspList   []assign.Assignment
	questions int // Stats.TotalQuestions
	generated int // Stats.GeneratedNodes
	answers   int // crowd calls
}

func mspKeys(res *core.Result) string {
	keys := make([]string, len(res.MSPs))
	for i, m := range res.MSPs {
		keys[i] = m.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// computeRef runs core.Run over the input and records its outcome.
func (in *queryInput) computeRef() {
	cfg := in.config()
	members, calls := countCalls(in.newCrowd(), nil)
	cfg.Members = members
	res := core.Run(cfg)
	in.ref = reference{
		msps:      mspKeys(res),
		mspList:   res.MSPs,
		questions: res.Stats.TotalQuestions,
		generated: res.Stats.GeneratedNodes,
		answers:   *calls,
	}
}

// check compares a measured result with the reference.
func (in *queryInput) check(res *core.Result) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	if res.Stats.TotalQuestions != in.ref.questions {
		return fmt.Errorf("%d questions, reference %d", res.Stats.TotalQuestions, in.ref.questions)
	}
	if got := mspKeys(res); got != in.ref.msps {
		return fmt.Errorf("%d MSPs differ from the reference's %d", len(res.MSPs), len(in.ref.mspList))
	}
	return nil
}

// setReferences computes every input's reference and records the input
// set's deterministic cost counts: questions per MSP and lattice nodes
// generated per crowd answer.
func (r *report) setReferences(ins []*queryInput) {
	var questions, msps, generated, answers int
	for _, in := range ins {
		in.computeRef()
		questions += in.ref.questions
		msps += len(in.ref.mspList)
		generated += in.ref.generated
		answers += in.ref.answers
	}
	r.set("questions_per_msp", ratio(float64(questions), float64(msps)))
	r.set("core.generated_nodes_per_answer", ratio(float64(generated), float64(answers)))
	r.note("references: %d inputs, %d questions, %d MSPs, %d crowd calls", len(ins), questions, msps, answers)
}

// answerWith converts a simulated member's reply into a session answer,
// the same conversion the oassis facade's sequential loop applies.
func answerWith(m crowd.Member, q core.Question) core.Answer {
	switch q.Kind {
	case core.KindSpecialization:
		r := m.ChooseSpecialization(q.Choices)
		return core.Answer{Support: r.Support, Choice: r.Choice, Chosen: r.Chosen, Declined: r.Declined}
	case core.KindPruning:
		if t, ok := m.Irrelevant(q.Terms); ok {
			for i, c := range q.Terms {
				if c == t {
					return core.AnswerIrrelevant(i)
				}
			}
		}
		return core.AnswerNoClick()
	default:
		return core.AnswerSupport(m.Concrete(q.Facts))
	}
}

// heapProbes is how many queries of a mining run have their live heap
// measured; heap_mb is the median.
const heapProbes = 5

// loopObs says what the session loop records.
type loopObs struct {
	// question samples the wait from submitting an answer until Next has
	// returned the following question (or the end of the run); answer
	// samples the Submit call. Both in ns; nil records none.
	question, answer *[]int64
	questions        *int // questions Next returned, summed over calls
	tr               *tracer
	metrics          *core.Metrics
	// heap, when set, receives the live heap halfway through each of the
	// first heapProbes queries; the forced collection is excluded from the
	// query's wall time.
	heap *[]uint64
}

// queryRun is one query driven through the session loop.
type queryRun struct {
	answers int
	wall    time.Duration
	res     *core.Result
}

// runQuery drives a fresh session over the input exactly as the facade's
// sequential Exec does: answer the first question Next returns until the
// run finishes.
func runQuery(in *queryInput, o *loopObs) (queryRun, error) {
	members := in.newCrowd()
	byID := make(map[string]crowd.Member, len(members))
	ids := make([]string, len(members))
	for i, m := range members {
		byID[m.ID()] = m
		ids[i] = m.ID()
	}
	cfg := in.config()
	cfg.Metrics = o.metrics
	tr := o.tr
	start := time.Now()
	var paused time.Duration
	sp := tr.begin(spCoreOpen)
	s := core.NewSession(cfg, ids)
	tr.end(sp)
	probeAt := -1
	if o.heap != nil && len(*o.heap) < heapProbes {
		probeAt = max(1, in.ref.answers/2)
	}
	n := 0
	var answered time.Time // when the last answer was submitted
	for {
		op := tr.begin(spBench)
		sp := tr.begin(spCoreNext)
		qs := s.Next()
		tr.end(sp)
		t1 := time.Now()
		if o.question != nil && n > 0 {
			*o.question = append(*o.question, int64(t1.Sub(answered)))
		}
		if len(qs) == 0 {
			tr.end(op)
			break
		}
		q := qs[0]
		tr.setQID(sp, int64(q.ID))
		if o.questions != nil {
			*o.questions += len(qs)
		}
		cs := tr.begin(spCrowd)
		a := answerWith(byID[q.Member], q)
		tr.end(cs)
		answered = time.Now()
		sp = tr.begin(spCoreSubmit)
		err := s.Submit(q.ID, a)
		tr.end(sp)
		t3 := time.Now()
		tr.setQID(sp, int64(q.ID))
		tr.end(op)
		if err != nil {
			s.Close()
			return queryRun{}, fmt.Errorf("submit question %d: %w", q.ID, err)
		}
		if o.answer != nil {
			*o.answer = append(*o.answer, int64(t3.Sub(answered)))
		}
		n++
		if n == probeAt {
			p0 := time.Now()
			*o.heap = append(*o.heap, liveHeap())
			paused += time.Since(p0)
			answered = answered.Add(time.Since(p0))
		}
	}
	res := s.Close()
	return queryRun{answers: n, wall: time.Since(start) - paused, res: res}, nil
}

// countingMember counts the crowd calls it serves and, with a tracer,
// records each as a crowd span.
type countingMember struct {
	m     crowd.Member
	tr    *tracer
	calls *int
}

func countCalls(ms []crowd.Member, tr *tracer) ([]crowd.Member, *int) {
	calls := new(int)
	out := make([]crowd.Member, len(ms))
	for i, m := range ms {
		out[i] = countingMember{m: m, tr: tr, calls: calls}
	}
	return out, calls
}

func (c countingMember) ID() string { return c.m.ID() }

func (c countingMember) Concrete(fs fact.Set) float64 {
	*c.calls++
	sp := c.tr.begin(spCrowd)
	defer c.tr.end(sp)
	return c.m.Concrete(fs)
}

func (c countingMember) ChooseSpecialization(cands []fact.Set) crowd.SpecializeResponse {
	*c.calls++
	sp := c.tr.begin(spCrowd)
	defer c.tr.end(sp)
	return c.m.ChooseSpecialization(cands)
}

func (c countingMember) Irrelevant(terms []vocab.Term) (vocab.Term, bool) {
	*c.calls++
	sp := c.tr.begin(spCrowd)
	defer c.tr.end(sp)
	return c.m.Irrelevant(terms)
}

// tracedRun runs core.Run over the input with every crowd call inside a
// child span, so the core.run span's self time excludes the crowd. It
// returns the crowd calls served.
func tracedRun(in *queryInput, tr *tracer) int {
	cfg := in.config()
	members, calls := countCalls(in.newCrowd(), tr)
	cfg.Members = members
	sp := tr.begin(spCoreRun)
	core.Run(cfg)
	tr.end(sp)
	return *calls
}

// succReplay calls Space.Successors, on a fresh space, on every node the
// reference run found significant — the nodes below one of its MSPs that
// lattice expansion reaches from the minimal nodes — at most limit of
// them, and reports the calls, their time and their heap allocations.
func succReplay(in *queryInput, limit int) (calls int, elapsed time.Duration, allocs uint64) {
	sp := in.pl.NewSpace()
	significant := func(a assign.Assignment) bool {
		for _, m := range in.ref.mspList {
			if sp.Leq(a, m) {
				return true
			}
		}
		return false
	}
	seen := map[string]bool{}
	var nodes, queue []assign.Assignment
	for _, m := range sp.Minimal() {
		seen[m.Key()] = true
		queue = append(queue, m)
	}
	for len(queue) > 0 && len(nodes) < limit {
		a := queue[0]
		queue = queue[1:]
		if !significant(a) {
			continue
		}
		nodes = append(nodes, a)
		for _, s := range sp.Successors(a) {
			if !seen[s.Key()] {
				seen[s.Key()] = true
				queue = append(queue, s)
			}
		}
	}
	fresh := in.pl.NewSpace()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for _, a := range nodes {
		fresh.Successors(a)
	}
	elapsed = time.Since(t0)
	runtime.ReadMemStats(&m1)
	return len(nodes), elapsed, m1.Mallocs - m0.Mallocs
}
