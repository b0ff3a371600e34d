package core

import (
	"fmt"
	"sort"
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/crowd"
	"oassis/internal/fact"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// gradeOracle restates the spam filter's rule from scratch, as the oracle
// for TestSpamBanMatchesOracle: it logs every answer per question, and
// when a question reaches k answers — the moment FixedSample(k) decides
// it — grades each of them against the median of all of them. A member
// is flagged once their Laplace-smoothed hit rate is below the floor
// after minGraded graded answers. Flags latch.
type gradeOracle struct {
	k         int
	answers   map[string][]float64
	members   map[string][]string
	hits      map[string]int
	trials    map[string]int
	flags     map[string]bool
	floor     float64
	tolerance float64
	minGraded int
}

func newGradeOracle(k int) *gradeOracle {
	return &gradeOracle{
		k:         k,
		answers:   make(map[string][]float64),
		members:   make(map[string][]string),
		hits:      make(map[string]int),
		trials:    make(map[string]int),
		flags:     make(map[string]bool),
		floor:     banFloor,
		tolerance: gradeTolerance,
		minGraded: banMinGraded,
	}
}

func (o *gradeOracle) observe(key, member string, sup float64) {
	o.answers[key] = append(o.answers[key], sup)
	o.members[key] = append(o.members[key], member)
	if len(o.answers[key]) != o.k {
		return
	}
	sorted := append([]float64(nil), o.answers[key]...)
	sort.Float64s(sorted)
	median := sorted[o.k/2]
	if o.k%2 == 0 {
		median = (sorted[o.k/2-1] + sorted[o.k/2]) / 2
	}
	for i, m := range o.members[key] {
		o.trials[m]++
		d := o.answers[key][i] - median
		if -o.tolerance-aggregate.Eps <= d && d <= o.tolerance+aggregate.Eps {
			o.hits[m]++
		}
		rate := float64(o.hits[m]+1) / float64(o.trials[m]+2)
		if o.trials[m] >= o.minGraded && rate < o.floor {
			o.flags[m] = true
		}
	}
}

// oracleSink is a Sink feeding every recorded answer to the oracle. Each
// answer first runs check: the engine sinks an answer right before the
// grading it may trigger, so at the next answer both graders have seen
// the same answers.
type oracleSink struct {
	oracle *gradeOracle
	check  func()
}

func (o *oracleSink) AppendAnswer(key, member string, support float64, _ QuestionKind, _ bool) error {
	o.check()
	o.oracle.observe(key, member, support)
	return nil
}

// spamSweepDomain is the spam experiment's domain (seed, patterns) with n
// spammers of kind.
func spamSweepDomain(t testing.TB, seed int64, patterns, n int, kind synth.SpamKind) *synth.Domain {
	t.Helper()
	d, err := synth.SpamDomain(seed, patterns, n, kind)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSpamBanMatchesOracle: on generated domains with planted spammers,
// the engine's spam filter bans exactly the members the from-scratch
// grader flags under FixedSample, each after the same answer.
func TestSpamBanMatchesOracle(t *testing.T) {
	bans := 0
	for seed := int64(1); seed <= 4; seed++ {
		for _, kind := range []synth.SpamKind{synth.SpamRandom, synth.SpamYes, synth.SpamMixed} {
			name := fmt.Sprintf("seed%d/kind%d", seed, kind)
			d := spamSweepDomain(t, seed, 6, 3, kind)
			ms := d.Members
			sink := &oracleSink{oracle: newGradeOracle(5)}
			var s *Session
			answers := 0
			sink.check = func() {
				if s == nil {
					t.Fatalf("%s: answer recorded before the session started", name)
				}
				for mi, id := range s.eng.ids {
					if s.eng.grades()[mi].banned != sink.oracle.flags[id] {
						t.Fatalf("%s: after answer %d, %s banned=%v, oracle flagged=%v",
							name, answers, id, s.eng.grades()[mi].banned, sink.oracle.flags[id])
					}
				}
				answers++
			}
			s = NewSession(Config{
				Space: d.Sp, Theta: 0.2, Members: ms, Agg: aggregate.NewFixedSample(5),
				MaxQuestions: 2000, SpamFilter: true, Store: sink,
			}, memberIDs(ms))
			for s.blocked >= 0 {
				s.Submit(s.open[s.blocked].id, AnswerFrom(ms[s.eng.want.mi], s.eng.wanted()))
			}
			sink.check()
			bans += s.res.Stats.BannedMembers
		}
	}
	if bans == 0 {
		t.Fatal("no member banned on any domain: the comparison proved nothing")
	}
}

// TestSpamFilterInertOnHonestCrowd: on honest crowds, exact and noisy,
// over the spam experiment's generated domains, the filter bans nobody,
// so the mined MSPs and the question count are those of the unfiltered
// run.
func TestSpamFilterInertOnHonestCrowd(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, patterns := range []int{6, 10} {
			for _, noisy := range []bool{false, true} {
				name := fmt.Sprintf("seed%d/patterns%d/noisy=%v", seed, patterns, noisy)
				run := func(filter bool) (*Result, string) {
					d := spamSweepDomain(t, seed, patterns, 0, synth.SpamRandom)
					ms := d.Members
					if noisy {
						for k, m := range ms {
							ms[k] = &crowd.Noisy{Member: m, P: 0.2, Seed: seed*31 + int64(k)}
						}
					}
					res := Run(Config{
						Space: d.Sp, Theta: 0.2, Members: ms,
						Agg:          aggregate.NewFixedSample(5),
						MaxQuestions: 2000, SpamFilter: filter,
					})
					return res, fmt.Sprint(sortedNames(d.Sp, res.MSPs))
				}
				off, want := run(false)
				on, got := run(true)
				if on.Stats.BannedMembers != 0 {
					t.Errorf("%s: %d honest member(s) banned", name, on.Stats.BannedMembers)
				}
				if got != want {
					t.Errorf("%s: MSPs with the filter %s, without %s", name, got, want)
				}
				if on.Stats.TotalQuestions != off.Stats.TotalQuestions {
					t.Errorf("%s: %d questions with the filter, %d without",
						name, on.Stats.TotalQuestions, off.Stats.TotalQuestions)
				}
			}
		}
	}
}

// gradeEngine returns an engine with the spam filter on over members h1,
// h2 and spam, three answers deciding a question, for driving the grader
// directly.
func gradeEngine(t *testing.T) *engine {
	_, q, sp := buildSpace(t, figure3Restricted)
	return newEngine(Config{
		Space: sp, Theta: q.Support, Agg: aggregate.NewFixedSample(3), SpamFilter: true,
	}, []string{"h1", "h2", "spam"})
}

// answerAs records member mi's answer to question i (a stand-in fact-set
// interned into the engine's table) the way recordAnswer does: in the
// cache, grading the question if the new answer decides it.
func answerAs(e *engine, i int, mi int, sup float64) {
	q := &e.qs.all[e.qs.intern(fact.Set{{S: vocab.Term(i), R: 1, O: 1}})]
	if q.record(mi, sup, e.cfg.Agg.K) {
		e.tally(q)
	}
}

// feedConsensus has the spammer answer question q at sup first, then h1
// and h2 at honest.
func feedConsensus(e *engine, q int, honest, sup float64) {
	answerAs(e, q, 2, sup)
	answerAs(e, q, 0, honest)
	answerAs(e, q, 1, honest)
}

// TestSpamBanFlagsDisagreement: a member consistently far from the
// consensus is banned once banMinGraded answers are graded, even when
// they answer first; the members inside the tolerance are graded on the
// same questions and not banned, and the banned member's answers stay
// recorded.
func TestSpamBanFlagsDisagreement(t *testing.T) {
	e := gradeEngine(t)
	for i := 0; i < banMinGraded; i++ {
		feedConsensus(e, i, 0.75, 0) // always 0.75 off
	}
	if g := e.grades()[2]; !g.banned || g.trials != banMinGraded {
		t.Errorf("disagreeing member: %+v, want banned after %d graded answers", g, banMinGraded)
	}
	for mi := 0; mi < 2; mi++ {
		if g := e.grades()[mi]; g.banned || g.hits != banMinGraded || g.trials != banMinGraded {
			t.Errorf("honest %s: %+v", e.ids[mi], g)
		}
	}
	if e.stats.BannedMembers != 1 {
		t.Errorf("BannedMembers = %d, want 1", e.stats.BannedMembers)
	}
	if e.memberActive(2) || !e.memberActive(1) {
		t.Error("memberActive does not follow the ban")
	}
	if n := len(e.qs.all[0].answers); n != 3 {
		t.Errorf("q0 holds %d answers after the ban, want 3 (the banned member's kept)", n)
	}
}

// TestSpamGradeOrderFree: a question's grades do not depend on the order
// in which its answers arrive — in every order, the two members who agree
// hit and the outlier misses.
func TestSpamGradeOrderFree(t *testing.T) {
	answers := []float64{0, 0.25, 1} // h1, h2, spam
	for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		e := gradeEngine(t)
		for _, mi := range order {
			answerAs(e, 0, mi, answers[mi])
		}
		for mi, g := range e.grades() {
			if want := mi < 2; g.trials != 1 || (g.hits == 1) != want {
				t.Errorf("order %v: %s graded %+v, want hit=%v", order, e.ids[mi], g, want)
			}
		}
	}
}

// TestSpamBanNeedsMinGraded: no ban before banMinGraded graded answers,
// however bad the answers.
func TestSpamBanNeedsMinGraded(t *testing.T) {
	e := gradeEngine(t)
	for i := 0; i < banMinGraded-1; i++ {
		feedConsensus(e, i, 1, 0)
	}
	if e.grades()[2].banned {
		t.Errorf("banned after %d graded answers", banMinGraded-1)
	}
	feedConsensus(e, banMinGraded, 1, 0)
	if !e.grades()[2].banned {
		t.Errorf("not banned after %d graded answers", banMinGraded)
	}
}

// TestSpamBanSkipsUngraded: a question is graded only when the aggregator
// decides it, so answers to questions still short of their sample grade
// nobody, an answer to an already decided question grades nobody again,
// and with the filter off there are no grades at all.
func TestSpamBanSkipsUngraded(t *testing.T) {
	e := gradeEngine(t)
	for i := 0; i < 4*banMinGraded; i++ {
		answerAs(e, i, 2, float64(i%2))
		answerAs(e, i, 0, 0.5)
	}
	for mi, g := range e.grades() {
		if g.trials != 0 || g.banned {
			t.Errorf("%s graded on undecided questions: %+v", e.ids[mi], g)
		}
	}
	_, q, sp := buildSpace(t, figure3Restricted)
	late := newEngine(Config{
		Space: sp, Theta: q.Support, Agg: aggregate.NewFixedSample(3), SpamFilter: true,
	}, []string{"h1", "h2", "spam", "late"})
	for mi := range late.ids {
		answerAs(late, 0, mi, 0.5)
	}
	for mi, g := range late.grades() {
		want := 1 // the three answers that decided the question
		if mi == 3 {
			want = 0 // the answer after the verdict
		}
		if g.trials != want {
			t.Errorf("%s graded %d times on one question, want %d", late.ids[mi], g.trials, want)
		}
	}
	off := newEngine(Config{Space: sp, Theta: q.Support}, []string{"h1"})
	if off.grades() != nil {
		t.Error("grades allocated with the filter off")
	}
}
