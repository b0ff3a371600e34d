package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/fact"
	"oassis/internal/oassisql"
	"oassis/internal/obs"
	"oassis/internal/ontology"
	"oassis/internal/serve"
	"oassis/internal/vocab"
)

// servingSupports are the four query variants every tenant serves; each
// threshold compiles to its own plan, so sessions share plans and spread
// over the shards.
var servingSupports = []float64{0.3, 0.4, 0.5, 0.6}

func servingQuery(support float64) string {
	return fmt.Sprintf(`
SELECT FACT-SETS
WHERE
  $w subClassOf* Attraction.
  $x instanceOf $w.
  $x inside NYC.
  $x hasLabel "child-friendly".
  $y subClassOf* Activity
SATISFYING
  $y doAt $x
WITH SUPPORT = %.1f
`, support)
}

const (
	servingMembers = 8 // roster slots per tenant
	// pollTimeout is how long a polling member waits for a question: not
	// at all. A driver stands for many members, and one with nothing to
	// answer must not hold up the arrivals behind it.
	pollTimeout = 0
	// maxLateness is how far behind its schedule an open-loop phase may
	// end before it is invalid: beyond it the backlog, not the system, sets
	// the latencies.
	maxLateness = 100 * time.Millisecond
)

// servingLevel is the serving crowd's answer to a concrete question: a
// pure hash of the asked facts, so every session of a variant mines the
// same MSPs whichever member answers, in whatever order.
func servingLevel(fs fact.Set) float64 {
	h := fnv.New32a()
	h.Write([]byte(fs.Key()))
	return float64(h.Sum32()%5) * 0.25
}

// servingAnswer answers a served question. The serving tenants never ask
// specialization or pruning questions; those would be declined.
func servingAnswer(kind core.QuestionKind, fs fact.Set) core.Answer {
	if kind == core.KindConcrete {
		return core.AnswerSupport(servingLevel(fs))
	}
	return core.AnswerDecline()
}

// servingMember is the serving crowd as a crowd.Member, for the core.Run
// references; it answers exactly as servingAnswer does.
type servingMember string

func (m servingMember) ID() string                   { return string(m) }
func (m servingMember) Concrete(fs fact.Set) float64 { return servingLevel(fs) }
func (m servingMember) ChooseSpecialization([]fact.Set) crowd.SpecializeResponse {
	return crowd.DeclineSpecialization()
}
func (m servingMember) Irrelevant([]vocab.Term) (vocab.Term, bool) { return vocab.None, false }

func servingCrowd() []crowd.Member {
	ms := make([]crowd.Member, servingMembers)
	for i := range ms {
		ms[i] = servingMember(fmt.Sprintf("p%02d", i))
	}
	return ms
}

// servingInputs compiles the query variants over the Figure-1 sample
// ontology, as a tenant does.
func servingInputs() ([]*queryInput, error) {
	sample := ontology.NewSample()
	dom, err := core.NewDomain(sample.Voc, sample.Onto)
	if err != nil {
		return nil, err
	}
	ins := make([]*queryInput, len(servingSupports))
	for i, s := range servingSupports {
		q, err := oassisql.Parse(servingQuery(s))
		if err != nil {
			return nil, err
		}
		pl, _, err := dom.CompileVariant(q, "", "", nil)
		if err != nil {
			return nil, err
		}
		ins[i] = &queryInput{pl: pl, theta: pl.Support, sample: 1, newCrowd: servingCrowd}
	}
	return ins, nil
}

// serveSpec shapes the serving workload.
type serveSpec struct {
	tenants  int
	sessions int     // live sessions, kept topped up
	rate     float64 // open-loop trips per second
}

type sessionKey struct {
	tenant int
	id     string
}

// serveSystem is one built serving registry with its live sessions.
type serveSystem struct {
	spec    serveSpec
	sample  *ontology.Sample
	met     *obs.Registry
	reg     *serve.Registry
	tenants []*serve.Tenant
	queries []*oassisql.Query
	opening time.Duration // time the initial Opens took

	mu      sync.Mutex
	variant map[sessionKey]int
}

// buildServe stands the serving tier up: the domain, the tenants with
// their joined rosters, and the initial sessions spread round-robin over
// tenants and query variants.
func buildServe(spec serveSpec) (*serveSystem, error) {
	sys := &serveSystem{spec: spec, sample: ontology.NewSample(), met: obs.NewRegistry(),
		variant: map[sessionKey]int{}}
	for _, s := range servingSupports {
		q, err := oassisql.Parse(servingQuery(s))
		if err != nil {
			return nil, err
		}
		sys.queries = append(sys.queries, q)
	}
	sys.reg = serve.NewRegistry(serve.Config{Metrics: sys.met})
	for i := 0; i < spec.tenants; i++ {
		t, err := sys.reg.AddTenant(serve.TenantConfig{
			Name: fmt.Sprintf("t%d", i), Voc: sys.sample.Voc, Onto: sys.sample.Onto,
			Members: servingMembers, Shards: 4, AnswersPerQuestion: 1,
		})
		if err != nil {
			sys.reg.Close()
			return nil, err
		}
		for m := 0; m < servingMembers; m++ {
			if _, err := t.Join(fmt.Sprintf("driver-%02d", m)); err != nil {
				sys.reg.Close()
				return nil, err
			}
		}
		sys.tenants = append(sys.tenants, t)
	}
	t0 := time.Now()
	for j := 0; j < spec.sessions; j++ {
		ti, v := j%spec.tenants, j%len(sys.queries)
		s, err := sys.tenants[ti].Open(sys.queries[v])
		if err != nil {
			sys.reg.Close()
			return nil, err
		}
		sys.variant[sessionKey{ti, s.ID()}] = v
	}
	sys.opening = time.Since(t0)
	return sys, nil
}

// coreCounts reads the session layer's speculation counters.
func (sys *serveSystem) coreCounts() (speculated, retired uint64) {
	return sys.met.Counter("oassis_session_questions_speculated_total", "").Value(),
		sys.met.Counter("oassis_session_questions_retired_total", "").Value()
}

type slot struct {
	tenant int
	member string
}

// tally is what a driver counts and samples over a phase.
type tally struct {
	trips, polls, empties, sheds, stale, answers int64
	checked, failed                              int64
	problems                                     []string
	qLat, aLat, late                             []int64 // ns, open loop only
	endLate                                      time.Duration
}

func (t *tally) fail(format string, args ...interface{}) {
	t.failed++
	if len(t.problems) < 20 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o *tally) {
	t.trips += o.trips
	t.polls += o.polls
	t.empties += o.empties
	t.sheds += o.sheds
	t.stale += o.stale
	t.answers += o.answers
	t.checked += o.checked
	t.failed += o.failed
	t.problems = append(t.problems, o.problems...)
	t.qLat = append(t.qLat, o.qLat...)
	t.aLat = append(t.aLat, o.aLat...)
	t.late = append(t.late, o.late...)
	t.endLate = max(t.endLate, o.endLate)
}

// driver is one goroutine issuing trips (poll, answer, recycle) for the
// roster slots it owns; no two drivers share a member.
type driver struct {
	id    int
	sys   *serveSystem
	ins   []*queryInput
	rng   *rand.Rand
	slots []slot
	tr    *tracer
	bins  []int64 // closed loop: answers per rateBin
	tally
}

// trip serves one arrival: a random owned member polls, answers what it
// got, and replaces the session if that answer finished it. due is the
// arrival's scheduled time in an open loop, zero in a closed one.
func (d *driver) trip(due time.Time) {
	sl := d.slots[d.rng.Intn(len(d.slots))]
	t := d.sys.tenants[sl.tenant]
	op := d.tr.begin(spBench)
	defer d.tr.end(op)
	d.trips++
	d.polls++
	sp := d.tr.begin(spServePoll)
	q, out, err := t.Poll(context.Background(), sl.member, pollTimeout)
	d.tr.end(sp)
	got := time.Now()
	if err != nil {
		if errors.Is(err, serve.ErrOverloaded) {
			d.sheds++
		}
		d.fail("poll %s/%s: %v", t.Name(), sl.member, err)
		return
	}
	if out != serve.OutcomeQuestion {
		d.empties++
		return
	}
	d.tr.setQID(sp, int64(q.ID))
	cs := d.tr.begin(spCrowd)
	a := servingAnswer(q.Kind, q.Facts)
	d.tr.end(cs)
	a0 := time.Now()
	sp = d.tr.begin(spServeAnswer)
	err = t.Answer(q.Session, sl.member, q.ID, a)
	d.tr.end(sp)
	a1 := time.Now()
	d.tr.setQID(sp, int64(q.ID))
	if lostRace(err) {
		d.stale++
		return
	}
	if err != nil {
		d.fail("answer %s/%s: %v", t.Name(), q.Session, err)
		return
	}
	d.answers++
	if !due.IsZero() {
		d.qLat = append(d.qLat, int64(got.Sub(due)))
		d.aLat = append(d.aLat, int64(a1.Sub(a0)))
	}
	d.recycle(sl.tenant, q.Session)
}

// lostRace reports an answer that lost a race with another member's: that
// answer finished the session, which may already be retired.
func lostRace(err error) bool {
	return errors.Is(err, serve.ErrNoPending) || errors.Is(err, serve.ErrUnknownSession)
}

// recycle retires the session if it has finished, checks its result
// against its variant's reference, and opens a replacement, so the number
// of live sessions stays constant.
func (d *driver) recycle(ti int, id string) {
	t := d.sys.tenants[ti]
	sp := d.tr.begin(spServeDone)
	sess, err := t.Session(id)
	done := err == nil && sess.Done()
	d.tr.end(sp)
	if !done {
		return
	}
	res, _ := sess.Result()
	sp = d.tr.begin(spServeRetire)
	err = t.Retire(id)
	d.tr.end(sp)
	if errors.Is(err, serve.ErrUnknownSession) {
		return // the other driver retired it first
	}
	if err != nil {
		d.fail("retire %s/%s: %v", t.Name(), id, err)
		return
	}
	sys := d.sys
	sys.mu.Lock()
	v := sys.variant[sessionKey{ti, id}]
	delete(sys.variant, sessionKey{ti, id})
	sys.mu.Unlock()
	d.checked++
	if err := d.ins[v].check(res); err != nil {
		d.fail("session %s/%s (variant %d): %v", t.Name(), id, v, err)
	}
	nv := d.rng.Intn(len(sys.queries))
	sp = d.tr.begin(spServeOpen)
	s, err := t.Open(sys.queries[nv])
	d.tr.end(sp)
	if err != nil {
		d.fail("open on %s: %v", t.Name(), err)
		return
	}
	sys.mu.Lock()
	sys.variant[sessionKey{ti, s.ID()}] = nv
	sys.mu.Unlock()
}

// openLoop issues arrivals on a fixed schedule, the drivers interleaving
// one global sequence, whether or not the system keeps up.
func (d *driver) openLoop(start time.Time, window time.Duration, ops, drivers int, rate float64) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i*drivers+d.id) / rate * float64(time.Second)))
		if ops > 0 {
			if i >= ops {
				return
			}
		} else if due.Sub(start) >= window {
			return
		}
		waitUntil(due)
		d.endLate = time.Since(due)
		d.late = append(d.late, int64(d.endLate))
		d.trip(due)
	}
}

// waitUntil returns at t. The runtime's timers wake a sleeper up to a
// millisecond late, far longer than the gap between arrivals, so the last
// stretch is spent yielding the processor instead of sleeping.
func waitUntil(t time.Time) {
	for {
		wait := time.Until(t)
		switch {
		case wait <= 0:
			return
		case wait > 2*time.Millisecond:
			time.Sleep(wait - time.Millisecond)
		default:
			runtime.Gosched()
		}
	}
}

// closedLoop issues each trip as soon as the previous one returns, and
// counts the answers in the rate bin the trip ended in.
func (d *driver) closedLoop(start time.Time, window time.Duration, ops int) {
	for i := 0; ; i++ {
		if ops > 0 {
			if i >= ops {
				return
			}
		} else if time.Since(start) >= window {
			return
		}
		before := d.answers
		d.trip(time.Time{})
		b := int(time.Since(start) / rateBin)
		for len(d.bins) <= b {
			d.bins = append(d.bins, 0)
		}
		d.bins[b] += d.answers - before
	}
}

// rateBin is the interval a closed loop's throughput is sampled over.
const rateBin = 500 * time.Millisecond

// phaseOut merges the drivers of one phase.
type phaseOut struct {
	tally
	bins    []int64 // closed loop: answers per rateBin, all drivers
	elapsed time.Duration
	agg     spanAgg
	open    bool
}

// rate is the phase's answers per second: in a closed loop the median
// over its whole rate bins, so that a stall of the machine lasting a few
// bins does not move it; over the whole phase when it is shorter than a
// bin.
func (p *phaseOut) rate() float64 {
	full := int(p.elapsed / rateBin)
	if full == 0 || len(p.bins) < full {
		return ratio(float64(p.answers), p.elapsed.Seconds())
	}
	rates := make([]float64, full)
	for i := range rates {
		rates[i] = float64(p.bins[i]) / rateBin.Seconds()
	}
	return median(rates)
}

// runPhase runs one phase with cfg.drivers goroutines. Phase indexes seed
// the drivers' member and variant choices, so every phase of a run draws
// its own sequence.
func (sys *serveSystem) runPhase(cfg runConfig, ins []*queryInput, idx int, open, traced bool, window time.Duration) phaseOut {
	n := cfg.drivers
	ds := make([]*driver, n)
	base := time.Now()
	for i := range ds {
		d := &driver{id: i, sys: sys, ins: ins,
			rng: rand.New(rand.NewSource(deriveSeed(cfg.seed, 1000*(idx+1)+i)))}
		for ti := range sys.tenants {
			for m := 0; m < servingMembers; m++ {
				if (ti*servingMembers+m)%n == i {
					d.slots = append(d.slots, slot{ti, fmt.Sprintf("p%02d", m)})
				}
			}
		}
		if traced {
			d.tr = newTracer(base, idx*n+i, cfg.spans, spServePoll, spServeAnswer)
		}
		ds[i] = d
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, d := range ds {
		wg.Add(1)
		go func(d *driver) {
			defer wg.Done()
			if open {
				d.openLoop(start, window, cfg.ops, n, sys.spec.rate)
			} else {
				d.closedLoop(start, window, cfg.ops)
			}
		}(d)
	}
	wg.Wait()
	out := phaseOut{elapsed: time.Since(start), open: open}
	for _, d := range ds {
		a := d.tr.collect()
		out.agg.add(&a)
		out.add(&d.tally)
		for len(out.bins) < len(d.bins) {
			out.bins = append(out.bins, 0)
		}
		for i, n := range d.bins {
			out.bins[i] += n
		}
	}
	return out
}

// account adds a phase's operations and failures to the report. An open
// loop that ended more than maxLateness behind schedule is invalid: its
// every trip counts as failed.
func (rep *report) account(name string, p *phaseOut) {
	rep.attempted += p.trips + p.checked
	rep.failed += p.failed
	for _, msg := range p.problems {
		if len(rep.problems) < 20 {
			rep.problems = append(rep.problems, name+": "+msg)
		}
	}
	if p.open && p.endLate > maxLateness {
		rep.fail("%s: open loop ended %v behind schedule (limit %v); phase invalid", name, p.endLate, maxLateness)
		rep.failed += p.trips
	}
	rep.note("%s: %d trips, %d answers, %d empty polls, %d stale answers, %d sessions checked in %.3fs",
		name, p.trips, p.answers, p.empties, p.stale, p.checked, p.elapsed.Seconds())
}

// runServeMany measures the serving workload: phase A is an open loop at
// a fixed rate, timed from each arrival's due time; phase B is a closed
// loop that measures capacity. A traced run repeats both phases with
// spans after the untraced ones, then replays the query variants through
// the session loop, core.Run and Space.Successors.
func runServeMany(cfg runConfig, rep *report) error {
	spec := serveSpec{tenants: 4, sessions: cfg.size.manySessions, rate: cfg.size.manyRate}
	var sys *serveSystem
	var setups []float64
	var heap0 uint64
	var g0 int
	for start := time.Now(); ; {
		heap0, g0 = liveHeap(), runtime.NumGoroutine()
		t0 := time.Now()
		s, err := buildServe(spec)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if !cfg.moreSetups(len(setups), start) {
			sys = s
			break
		}
		if err := s.reg.Close(); err != nil {
			return err
		}
	}
	defer sys.reg.Close()
	heap1, g1 := liveHeap(), runtime.NumGoroutine()
	live := float64(spec.sessions)
	rep.set("setup_s", median(setups))
	rep.set("heap_mb", float64(heap1)/1e6)
	rep.set("serve.heap_kb_per_session", (float64(heap1)-float64(heap0))/1e3/live)
	rep.set("serve.goroutines_per_session", float64(g1-g0)/live)
	rep.set("serve.open.us_per_session", float64(sys.opening.Microseconds())/live)

	ins, err := servingInputs()
	if err != nil {
		return err
	}
	rep.setReferences(ins)

	window := cfg.window / 2
	if cfg.trace {
		window /= 2
	}
	p0 := readProc()
	spec0, ret0 := sys.coreCounts()
	a := sys.runPhase(cfg, ins, 0, true, false, window)
	rep.account("phase A (open loop)", &a)
	b := sys.runPhase(cfg, ins, 1, false, false, window)
	rep.account("phase B (closed loop)", &b)
	p1 := readProc()
	spec1, ret1 := sys.coreCounts()

	aps := b.rate()
	rep.set("answers_per_s", aps)
	rep.note("closed loop: %.1f answers/s, the median of %d bins of %v; %.1f over the whole phase",
		aps, int(b.elapsed/rateBin), rateBin, ratio(float64(b.answers), b.elapsed.Seconds()))
	if err := rep.setLatency("question", a.qLat); err != nil {
		return err
	}
	if err := rep.setLatency("answer", a.aLat); err != nil {
		return err
	}
	if d, err := summarize(a.late); err == nil {
		rep.set("gen.late_p99_us", float64(d.tail)/1e3)
		rep.set("gen.late_max_ms", float64(d.max)/1e6)
	}
	answers := a.answers + b.answers
	n := float64(answers)
	rep.setProc(p0, p1, answers)
	rep.set("core.speculated_per_answer", ratio(float64(spec1-spec0), n))
	rep.set("core.retired_per_answer", ratio(float64(ret1-ret0), n))
	rep.set("serve.poll.empty_ratio", ratio(float64(a.empties+b.empties), float64(a.polls+b.polls)))
	rep.set("serve.sheds_per_answer", ratio(float64(a.sheds+b.sheds), n))
	if !cfg.trace {
		return nil
	}

	ta := sys.runPhase(cfg, ins, 2, true, true, window)
	rep.account("traced phase A", &ta)
	tb := sys.runPhase(cfg, ins, 3, false, true, window)
	rep.account("traced phase B", &tb)
	rep.set("trace.overhead_ratio", 1-ratio(tb.rate(), aps))
	rep.set("crowd.ns_per_answer", ratio(float64(tb.agg.self[spCrowd]), float64(tb.answers)))
	rep.setBusy("api.question.busy_ns", tb.agg.durs[spServePoll])
	rep.setBusy("api.answer.busy_ns", tb.agg.durs[spServeAnswer])
	rep.setShares(&tb.agg, tb.elapsed, cfg.drivers)

	// The serving tier calls the session layer internally; its cost per
	// answer is measured by replaying the variants through the sequential
	// session loop.
	tr := newTracer(time.Now(), 0, nil)
	var replayAnswers, questions int
	for _, in := range ins {
		qr, err := runQuery(in, &loopObs{tr: tr, questions: &questions})
		rep.attempted++
		if err == nil {
			err = in.check(qr.res)
		}
		if err != nil {
			rep.fail("session replay: %v", err)
		}
		replayAnswers += qr.answers
	}
	agg := tr.collect()
	replayLayers(rep, ins, rep.setSessionLayers(&agg, replayAnswers, questions))
	return nil
}
