package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/assign"
	"oassis/internal/crowd"
	"oassis/internal/fact"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/sparql"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// figure2Full is the complete Figure 2 query of the paper (without MORE,
// which individual tests enable through the MoreCandidates pool).
const figure2Full = `
SELECT FACT-SETS
WHERE
  $w subClassOf* Attraction.
  $x instanceOf $w.
  $x inside NYC.
  $x hasLabel "child-friendly".
  $y subClassOf* Activity .
  $z instanceOf Restaurant.
  $z nearBy $x
SATISFYING
  $y+ doAt $x .
  [] eatAt $z
WITH SUPPORT = 0.4
`

// figure3Restricted is the grey-highlighted restriction used in Figure 3.
const figure3Restricted = `
SELECT FACT-SETS
WHERE
  $w subClassOf* Attraction.
  $x instanceOf $w.
  $x inside NYC.
  $x hasLabel "child-friendly".
  $y subClassOf* Activity
SATISFYING
  $y+ doAt $x
WITH SUPPORT = 0.4
`

func buildSpace(t testing.TB, src string) (*ontology.Sample, *oassisql.Query, *assign.Space) {
	t.Helper()
	s := ontology.NewSample()
	q := oassisql.MustParse(src)
	bs, err := sparql.Evaluate(s.Onto, q.Where)
	if err != nil {
		t.Fatal(err)
	}
	maps := make([]map[string]vocab.Term, len(bs))
	for i, b := range bs {
		maps[i] = b
	}
	sp, err := assign.NewSpace(s.Voc, q, maps, sparql.Anchors(s.Voc, q.Where))
	if err != nil {
		t.Fatal(err)
	}
	return s, q, sp
}

// sampleMembers returns u1 and u2 of Table 3 as exact-answer members.
func sampleMembers(s *ontology.Sample) []crowd.Member {
	u1, u2 := crowd.SampleDBs(s)
	return []crowd.Member{
		&crowd.SimMember{Name: "u1", DB: u1, Disc: crowd.Exact},
		&crowd.SimMember{Name: "u2", DB: u2, Disc: crowd.Exact},
	}
}

// mspNames formats MSPs for comparison.
func mspNames(sp *assign.Space, msps []assign.Assignment) map[string]bool {
	out := map[string]bool{}
	for _, m := range msps {
		out[sp.Format(m)] = true
	}
	return out
}

func TestClassifierAnchors(t *testing.T) {
	s, _, sp := buildSpace(t, figure3Restricted)
	c := newClassifier(sp)
	mk := func(y, x string) uint32 {
		return sp.ID(sp.Singleton(s.T(y), s.T(x)))
	}
	sport := mk("Sport", "Central Park")
	biking := mk("Biking", "Central Park")
	ballGame := mk("Ball Game", "Central Park")
	basketball := mk("Basketball", "Central Park")
	if c.status(sport) != Unclassified {
		t.Fatal("fresh node should be unclassified")
	}
	c.markSignificant(biking)
	if c.status(sport) != Significant {
		t.Error("predecessor of significant not significant")
	}
	if c.status(ballGame) != Unclassified {
		t.Error("incomparable node classified")
	}
	c.markInsignificant(ballGame)
	if c.status(basketball) != Insignificant {
		t.Error("successor of insignificant not insignificant")
	}
	if c.status(biking) != Significant {
		t.Error("explicit significant lost")
	}
	// Anchor minimality/maximality maintenance.
	c.markSignificant(mk("Sport", "Central Park")) // implied, no-op
	if len(c.sig) != 1 {
		t.Errorf("sig anchors = %d, want 1", len(c.sig))
	}
	c.markInsignificant(basketball) // implied, no-op
	if len(c.insig) != 1 {
		t.Errorf("insig anchors = %d, want 1", len(c.insig))
	}
}

func TestRunningExampleRestricted(t *testing.T) {
	s, q, sp := buildSpace(t, figure3Restricted)
	res := Run(Config{
		Space:   sp,
		Theta:   q.Support,
		Members: sampleMembers(s),
		Agg:     aggregate.NewFixedSample(2),
	})
	got := mspNames(sp, res.ValidMSPs)
	want := []string{
		"y↦{Biking}, x↦{Central Park}",
		"y↦{Ball Game}, x↦{Central Park}",
		"y↦{Feed a Monkey}, x↦{Bronx Zoo}",
	}
	if len(got) != len(want) {
		t.Fatalf("ValidMSPs = %v, want %v", got, want)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing MSP %s (got %v)", w, got)
		}
	}
	if res.Stats.TotalQuestions == 0 || res.Stats.UniqueQuestions == 0 {
		t.Error("no questions counted")
	}
	if res.Stats.UniqueQuestions > res.Stats.TotalQuestions {
		t.Error("unique > total")
	}
}

func TestRunningExampleFullQuery(t *testing.T) {
	// The paper's final answers: biking in Central Park + eat at Maoz Veg,
	// ball games in Central Park + eat at Maoz Veg, feed a monkey at the
	// Bronx Zoo + eat at Pine.
	s, q, sp := buildSpace(t, figure2Full)
	res := Run(Config{
		Space:   sp,
		Theta:   q.Support,
		Members: sampleMembers(s),
		Agg:     aggregate.NewFixedSample(2),
	})
	got := mspNames(sp, res.ValidMSPs)
	want := []string{
		"y↦{Biking}, x↦{Central Park}, z↦{Maoz Veg}",
		"y↦{Ball Game}, x↦{Central Park}, z↦{Maoz Veg}",
		"y↦{Feed a Monkey}, x↦{Bronx Zoo}, z↦{Pine}",
	}
	if len(got) != len(want) {
		t.Fatalf("ValidMSPs = %v, want %v", got, want)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing MSP %s", w)
		}
	}
}

func TestMoreExtensionExample32(t *testing.T) {
	// Example 3.2: with the MORE keyword, biking in Central Park extends
	// with "Rent Bikes doAt Boathouse" (support 5/12 ≥ 0.4), while the
	// ball-game MSP does not extend.
	s, q, sp := buildSpace(t, figure2Full)
	sp.More = true
	sp.MoreCandidates = fact.Set{s.Fact("Rent Bikes", "doAt", "Boathouse")}
	res := Run(Config{
		Space:   sp,
		Theta:   q.Support,
		Members: sampleMembers(s),
		Agg:     aggregate.NewFixedSample(2),
	})
	got := mspNames(sp, res.ValidMSPs)
	if !got["y↦{Biking}, x↦{Central Park}, z↦{Maoz Veg} +more{Rent Bikes doAt Boathouse}"] {
		t.Errorf("biking MSP did not extend with the boathouse tip: %v", got)
	}
	if got["y↦{Biking}, x↦{Central Park}, z↦{Maoz Veg}"] {
		t.Error("non-maximal biking node reported as MSP")
	}
	if !got["y↦{Ball Game}, x↦{Central Park}, z↦{Maoz Veg}"] {
		t.Error("ball-game MSP lost")
	}
}

func TestAllAlgorithmsAgree(t *testing.T) {
	for _, src := range []string{figure3Restricted, figure2Full} {
		s, q, sp := buildSpace(t, src)
		mk := func() Config {
			return Config{
				Space:   sp,
				Theta:   q.Support,
				Members: sampleMembers(s),
				Agg:     aggregate.NewFixedSample(2),
			}
		}
		v := Run(mk())
		h := RunHorizontal(mk())
		n := RunNaive(mk(), v.MSPs)
		vm, hm, nm := mspNames(sp, v.ValidMSPs), mspNames(sp, h.ValidMSPs), mspNames(sp, n.ValidMSPs)
		if len(vm) != len(hm) {
			t.Fatalf("vertical %v vs horizontal %v", vm, hm)
		}
		for k := range vm {
			if !hm[k] {
				t.Errorf("horizontal missing %s", k)
			}
			if !nm[k] {
				t.Errorf("naive missing %s", k)
			}
		}
	}
}

func TestThresholdReplay(t *testing.T) {
	s, _, sp := buildSpace(t, figure3Restricted)
	// Mine at a low threshold, recording the cache.
	low := Run(Config{
		Space:   sp,
		Theta:   0.2,
		Members: sampleMembers(s),
		Agg:     aggregate.NewFixedSample(2),
	})
	if low.Cache.Len() == 0 {
		t.Fatal("empty cache")
	}
	// Replay at a higher threshold: cached answers are reused, questions
	// the original run never asked fall through to the live members (§6.3).
	_, _, sp2 := buildSpace(t, figure3Restricted)
	replay := Run(Config{
		Space:   sp2,
		Theta:   0.4,
		Members: sampleMembers(s),
		Agg:     aggregate.NewFixedSample(2),
		Prime:   low.Cache,
	})
	// Direct mining at 0.4 must agree.
	_, _, sp3 := buildSpace(t, figure3Restricted)
	direct := Run(Config{
		Space:   sp3,
		Theta:   0.4,
		Members: sampleMembers(s),
		Agg:     aggregate.NewFixedSample(2),
	})
	rm, dm := mspNames(sp2, replay.ValidMSPs), mspNames(sp3, direct.ValidMSPs)
	if len(rm) != len(dm) {
		t.Fatalf("replay %v vs direct %v", rm, dm)
	}
	for k := range dm {
		if !rm[k] {
			t.Errorf("replay missing %s", k)
		}
	}
	// Most replay answers must come from the primed cache; a handful of
	// fresh questions are allowed for nodes the low-threshold run
	// classified purely by inference and never asked.
	if replay.Stats.PrimedAnswers == 0 {
		t.Error("replay used no cached answers")
	}
	fresh := replay.Stats.TotalQuestions - replay.Stats.PrimedAnswers
	if fresh > replay.Stats.PrimedAnswers/2 {
		t.Errorf("replay mostly missed the cache: %d fresh vs %d primed",
			fresh, replay.Stats.PrimedAnswers)
	}
}

func TestQuestionsDecreaseWithThreshold(t *testing.T) {
	// The paper observes that the number of questions generally decreases
	// as the threshold rises (fewer MSPs, more pruning); the trend is not
	// strictly monotone step to step (different traversals), so we compare
	// the extremes and allow small local up-ticks.
	s, _, _ := buildSpace(t, figure3Restricted)
	counts := map[float64]int{}
	for _, theta := range []float64{0.2, 0.3, 0.4, 0.5} {
		_, _, sp := buildSpace(t, figure3Restricted)
		res := Run(Config{
			Space:   sp,
			Theta:   theta,
			Members: sampleMembers(s),
			Agg:     aggregate.NewFixedSample(2),
		})
		counts[theta] = res.Stats.TotalQuestions
	}
	if counts[0.5] >= counts[0.2] {
		t.Errorf("questions did not drop from theta 0.2 (%d) to 0.5 (%d)",
			counts[0.2], counts[0.5])
	}
	for _, pair := range [][2]float64{{0.2, 0.3}, {0.3, 0.4}, {0.4, 0.5}} {
		lo, hi := counts[pair[0]], counts[pair[1]]
		if hi > lo+lo/5 {
			t.Errorf("questions at theta %v (%d) far exceed theta %v (%d)",
				pair[1], hi, pair[0], lo)
		}
	}
}

func TestMaxQuestionsBudget(t *testing.T) {
	s, q, sp := buildSpace(t, figure2Full)
	res := Run(Config{
		Space:        sp,
		Theta:        q.Support,
		Members:      sampleMembers(s),
		Agg:          aggregate.NewFixedSample(2),
		MaxQuestions: 5,
	})
	if res.Stats.TotalQuestions > 5 {
		t.Errorf("budget exceeded: %d", res.Stats.TotalQuestions)
	}
}

func TestCrowdComplexityBound(t *testing.T) {
	// Proposition 4.7: unique questions ∈ O((|E|+|R|)·|msp| + |msp⁻|),
	// where msp⁻ is the set of minimal insignificant assignments. We check
	// the concrete bound with constant 1 against the run.
	s, q, sp := buildSpace(t, figure3Restricted)
	res := Run(Config{
		Space:   sp,
		Theta:   q.Support,
		Members: sampleMembers(s),
		Agg:     aggregate.NewFixedSample(2),
	})
	e := newEngine(Config{Space: sp}, nil) // just for the classifier type
	_ = e
	terms := s.Voc.Len()
	bound := terms*len(res.MSPs) + res.Stats.UniqueQuestions // msp⁻ ≤ unique
	if res.Stats.UniqueQuestions > bound {
		t.Errorf("unique questions %d exceed Prop 4.7 bound %d",
			res.Stats.UniqueQuestions, bound)
	}
	if len(res.MSPs) == 0 {
		t.Fatal("no MSPs")
	}
}

func TestSpecializationQuestions(t *testing.T) {
	s, q, sp := buildSpace(t, figure3Restricted)
	u1, u2 := crowd.SampleDBs(s)
	members := []crowd.Member{
		&crowd.SimMember{Name: "u1", DB: u1, Disc: crowd.Exact, SpecializeProb: 1, Theta: 0.3},
		&crowd.SimMember{Name: "u2", DB: u2, Disc: crowd.Exact, SpecializeProb: 1, Theta: 0.3},
	}
	res := Run(Config{
		Space:               sp,
		Theta:               q.Support,
		Members:             members,
		Agg:                 aggregate.NewFixedSample(2),
		SpecializationRatio: 1,
		Rng:                 rand.New(rand.NewSource(7)),
	})
	if res.Stats.Specialization+res.Stats.NoneOfThese == 0 {
		t.Error("no specialization questions asked at ratio 1")
	}
	got := mspNames(sp, res.ValidMSPs)
	for _, w := range []string{
		"y↦{Biking}, x↦{Central Park}",
		"y↦{Ball Game}, x↦{Central Park}",
		"y↦{Feed a Monkey}, x↦{Bronx Zoo}",
	} {
		if !got[w] {
			t.Errorf("missing MSP %s with specialization questions (got %v)", w, got)
		}
	}
}

func TestUserGuidedPruning(t *testing.T) {
	s, q, sp := buildSpace(t, figure3Restricted)
	u1, u2 := crowd.SampleDBs(s)
	members := []crowd.Member{
		&crowd.SimMember{Name: "u1", DB: u1, Disc: crowd.Exact, PruneProb: 1,
			Rng: rand.New(rand.NewSource(3))},
		&crowd.SimMember{Name: "u2", DB: u2, Disc: crowd.Exact, PruneProb: 1,
			Rng: rand.New(rand.NewSource(4))},
	}
	res := Run(Config{
		Space:         sp,
		Theta:         q.Support,
		Members:       members,
		Agg:           aggregate.NewFixedSample(2),
		EnablePruning: true,
	})
	if res.Stats.Pruning == 0 {
		t.Error("no pruning clicks recorded")
	}
	// Pruning must not change the result: the pruned subtrees all had
	// support 0 anyway.
	got := mspNames(sp, res.ValidMSPs)
	for _, w := range []string{
		"y↦{Biking}, x↦{Central Park}",
		"y↦{Ball Game}, x↦{Central Park}",
		"y↦{Feed a Monkey}, x↦{Bronx Zoo}",
	} {
		if !got[w] {
			t.Errorf("missing MSP %s with pruning (got %v)", w, got)
		}
	}
}

func TestSelectAllEnumeration(t *testing.T) {
	s, q, sp := buildSpace(t, figure3Restricted)
	res := Run(Config{
		Space:   sp,
		Theta:   q.Support,
		Members: sampleMembers(s),
		Agg:     aggregate.NewFixedSample(2),
	})
	all := AllSignificant(sp, res.MSPs)
	names := mspNames(sp, all)
	// Generalizations of the MSPs that are valid must be included.
	for _, w := range []string{
		"y↦{Sport}, x↦{Central Park}",
		"y↦{Activity}, x↦{Central Park}",
		"y↦{Biking}, x↦{Central Park}",
		"y↦{Activity}, x↦{Bronx Zoo}",
	} {
		if !names[w] {
			t.Errorf("AllSignificant missing %s (have %d entries)", w, len(all))
		}
	}
	// Insignificant valid assignments must not appear.
	if names["y↦{Basketball}, x↦{Central Park}"] {
		t.Error("insignificant assignment in ALL output")
	}
}

func TestEmptyValidSet(t *testing.T) {
	s, q, sp := buildSpace(t, `SELECT FACT-SETS
WHERE $x instanceOf Park . $x hasLabel "no such label"
SATISFYING $x doAt $x WITH SUPPORT = 0.2`)
	res := Run(Config{Space: sp, Theta: q.Support, Members: sampleMembers(s)})
	if len(res.MSPs) != 0 || res.Stats.TotalQuestions != 0 {
		t.Errorf("MSPs=%d questions=%d on empty valid set",
			len(res.MSPs), res.Stats.TotalQuestions)
	}
}

func TestTimelineMonotone(t *testing.T) {
	s, q, sp := buildSpace(t, figure3Restricted)
	sess := runSession(Config{
		Space:         sp,
		Theta:         q.Support,
		Members:       sampleMembers(s),
		Agg:           aggregate.NewFixedSample(2),
		TrackTimeline: true,
	})
	res, e := sess.res, sess.eng
	if len(res.Stats.Timeline) != res.Stats.TotalQuestions {
		t.Fatalf("timeline %d points, %d questions",
			len(res.Stats.Timeline), res.Stats.TotalQuestions)
	}
	prev := Point{}
	for _, p := range res.Stats.Timeline {
		if p.Questions < prev.Questions || p.ClassifiedValid < prev.ClassifiedValid {
			t.Fatal("timeline not monotone")
		}
		prev = p
	}
	last := res.Stats.Timeline[len(res.Stats.Timeline)-1]
	if last.ClassifiedValid == 0 {
		t.Error("no valid assignments classified in timeline")
	}
	// Brute force: a row is classified once it lies at or below a
	// significant anchor or at or above an insignificant one.
	want := 0
	for _, row := range sp.ValidBase {
		r := sp.Singleton(row...)
		if slices.ContainsFunc(e.cls.sig, func(id uint32) bool { return sp.Leq(r, sp.Node(id)) }) ||
			slices.ContainsFunc(e.cls.insig, func(id uint32) bool { return sp.Leq(sp.Node(id), r) }) {
			want++
		}
	}
	if e.rare.classifiedN != want {
		t.Errorf("classifiedN = %d, brute force over the anchors counts %d of %d rows",
			e.rare.classifiedN, want, len(sp.ValidBase))
	}
}

// TestTimelineDoesNotPerturb: tracking the timeline changes nothing but
// Stats.Timeline — the MSPs, statistics, discovery times, contributor
// counts and |msp⁻| are identical with it on and off, on the Figure 1
// sample, the 16-member travel crowd and a synthetic lattice.
func TestTimelineDoesNotPerturb(t *testing.T) {
	ct := newCrowdTravel(t)
	cases := []equivalenceCase{
		figure1Case(),
		{name: "crowd-travel", mkConfig: func(t *testing.T) (Config, *assign.Space) {
			cfg := ct.config()
			cfg.Members = ct.d.NewCrowd()
			return cfg, cfg.Space
		}},
		synthCase("synth-wide", synth.DAGConfig{
			Width: 12, Depth: 3, XWidth: 6, XDepth: 2, Seed: 7,
		}, 5, 3),
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			off, _ := tc.mkConfig(t)
			on, _ := tc.mkConfig(t)
			on.TrackTimeline = true
			want, got := Run(off), Run(on)
			if len(got.Stats.Timeline) != got.Stats.TotalQuestions || want.Stats.Timeline != nil {
				t.Fatalf("timeline points: %d with tracking (%d questions), %d without",
					len(got.Stats.Timeline), got.Stats.TotalQuestions, len(want.Stats.Timeline))
			}
			got.Stats.Timeline = nil
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"MSPs", got.MSPs, want.MSPs},
				{"ValidMSPs", got.ValidMSPs, want.ValidMSPs},
				{"Stats", got.Stats, want.Stats},
				{"MSPQuestion", got.MSPQuestion, want.MSPQuestion},
				{"AnswersByMember", got.AnswersByMember, want.AnswersByMember},
				{"InsigMinimal", got.InsigMinimal, want.InsigMinimal},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Errorf("%s differs with the timeline on:\n got %v\nwant %v", f.name, f.got, f.want)
				}
			}
		})
	}
}

func TestBaselineQuestions(t *testing.T) {
	_, _, sp := buildSpace(t, figure3Restricted)
	if got := BaselineQuestions(sp, 5); got != 5*len(sp.ValidBase) {
		t.Errorf("BaselineQuestions = %d", got)
	}
}

func TestMSPQuestionRecorded(t *testing.T) {
	s, q, sp := buildSpace(t, figure3Restricted)
	res := Run(Config{
		Space:   sp,
		Theta:   q.Support,
		Members: sampleMembers(s),
		Agg:     aggregate.NewFixedSample(2),
	})
	for _, m := range res.MSPs {
		qn, ok := res.DiscoveredAt(m)
		if !ok {
			t.Errorf("MSP %s has no discovery question", sp.Format(m))
		}
		if qn < 0 || qn > res.Stats.TotalQuestions {
			t.Errorf("discovery question %d out of range", qn)
		}
	}
}
