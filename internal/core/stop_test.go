package core

import (
	"fmt"
	"sync"
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/crowd"
	"oassis/internal/fact"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// flipSpammer adversarially inverts the answers an honest member would
// give, so it is anti-correlated with the crowd consensus.
type flipSpammer struct {
	name   string
	honest crowd.Member
}

func (m *flipSpammer) ID() string { return m.name }
func (m *flipSpammer) Concrete(fs fact.Set) float64 {
	return 1 - m.honest.Concrete(fs)
}
func (m *flipSpammer) ChooseSpecialization([]fact.Set) crowd.SpecializeResponse {
	return crowd.DeclineSpecialization()
}
func (m *flipSpammer) Irrelevant([]vocab.Term) (vocab.Term, bool) { return vocab.None, false }

// stopTravelDomain is the travel synthetic domain the equivalence tests
// use, regenerated fresh per call.
func stopTravelDomain(t testing.TB) *synth.Domain {
	t.Helper()
	d, err := synth.GenerateDomain(synth.DomainConfig{
		Name: "travel", YTerms: 30, XTerms: 10, YDepth: 4, XDepth: 3,
		Members: 8, Transactions: 12, Patterns: 6, Seed: 101,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestAccuracyStopFlagsSpammers injects one spammer of each kind into a
// latency-wrapped synthetic crowd and checks the spam filter's
// consensus-accuracy ban stops asking the spammer while leaving every
// honest member alone. The spammer sits right after two honest consensus
// anchors in member order, so its answers are graded against an honest
// consensus.
func TestAccuracyStopFlagsSpammers(t *testing.T) {
	cases := []struct {
		kind string
		mk   func(honest crowd.Member) crowd.Member
	}{
		{"random", func(crowd.Member) crowd.Member {
			return &crowd.RandomSpammer{Name: "spammer", Seed: 7}
		}},
		{"always-yes", func(crowd.Member) crowd.Member {
			return &crowd.YesSpammer{Name: "spammer"}
		}},
		{"adversarial-flip", func(honest crowd.Member) crowd.Member {
			return &flipSpammer{name: "spammer", honest: honest}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			d := stopTravelDomain(t)
			honest := d.Members
			spam := tc.mk(honest[len(honest)-1])
			members := []crowd.Member{honest[0], honest[1], spam}
			members = append(members, honest[2:]...)
			sess := runSession(Config{
				Space:      d.Sp,
				Theta:      0.2,
				Members:    members,
				Agg:        aggregate.NewFixedSample(3),
				SpamFilter: true,
			})
			res := sess.res
			if g := sess.eng.grades()[2]; !g.banned {
				t.Errorf("%s spammer not banned (%d of %d graded answers hit)",
					tc.kind, g.hits, g.trials)
			}
			if res.Stats.BannedMembers != 1 {
				t.Errorf("stats.BannedMembers = %d, want 1", res.Stats.BannedMembers)
			}
			if len(res.MSPs) == 0 {
				t.Error("run with a banned spammer mined no MSPs")
			}
		})
	}
}

// TestStopPolicySharedAcrossSessions shares one species policy between 16
// concurrent runs: the policy's internal locking must hold up when many
// engines feed and poll it at once.
func TestStopPolicySharedAcrossSessions(t *testing.T) {
	stop := aggregate.NewSpeciesStop()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := stopTravelDomain(t)
			Run(Config{
				Space:   d.Sp,
				Theta:   0.2,
				Members: d.Members,
				Agg:     aggregate.NewFixedSample(3),
				Stop:    stop,
			})
		}()
	}
	wg.Wait()
	if est := stop.Estimate(); est <= 0 || est > 1 {
		t.Errorf("estimate %v outside (0, 1]: the shared policy observed no repeat discoveries", est)
	}
}

// mineBothWays runs one open-world domain to exhaustion and under the
// species stop rule, on fresh copies of the domain.
func mineBothWays(t *testing.T, seed int64, patterns int) (d *synth.Domain, full, early *Result) {
	t.Helper()
	run := func(stop *aggregate.SpeciesStop) (*synth.Domain, *Result) {
		d, err := synth.OpenWorldDomain(seed, patterns)
		if err != nil {
			t.Fatal(err)
		}
		return d, Run(Config{
			Space:   d.Sp,
			Theta:   0.2,
			Members: d.Members,
			Agg:     aggregate.NewFixedSample(5),
			Stop:    stop,
		})
	}
	d, full = run(nil)
	_, early = run(aggregate.NewSpeciesStop())
	return d, full, early
}

// TestSpeciesStopEndsRunEarly pins the stop rule's payoff at engine
// level: on an open-world synthetic domain it ends the run with fewer
// questions than the run-to-exhaustion default, and the result reports
// the early stop.
func TestSpeciesStopEndsRunEarly(t *testing.T) {
	_, full, early := mineBothWays(t, 101, 10)
	if !early.Stats.StoppedEarly {
		t.Fatalf("species rule never stopped the run (estimate %.3f after %d questions)",
			early.Stats.StopEstimate, early.Stats.TotalQuestions)
	}
	if early.Stats.TotalQuestions >= full.Stats.TotalQuestions {
		t.Errorf("early stop asked %d questions, full run %d — no savings",
			early.Stats.TotalQuestions, full.Stats.TotalQuestions)
	}
	if early.Stats.StopEstimate <= 1-0.275 {
		t.Errorf("final coverage %.3f not above the rule's 0.725", early.Stats.StopEstimate)
	}
	if early.Stats.StopUnclassified == 0 {
		t.Error("early stop reported no unclassified pool nodes")
	}
	if early.Stats.ForcedClassifications != full.Stats.ForcedClassifications {
		t.Errorf("settlement counted as forced: %d forced verdicts, %d in the full run",
			early.Stats.ForcedClassifications, full.Stats.ForcedClassifications)
	}
}

// TestStopSettlementSound is the regression table of frontier
// settlement: on each (patterns, seed) domain the species rule fires, and
// settling the frontier from the mean of fewer than K answers put an
// early MSP below no MSP of the exhaustive run. Settling only the
// verdicts no missing answer could change keeps every early MSP at or
// below an exhaustive one (precision 1.00): stopping may truncate the
// answer set, never corrupt it.
func TestStopSettlementSound(t *testing.T) {
	cases := []struct {
		patterns int
		seed     int64
	}{
		{8, 1}, {8, 4}, {8, 6}, {8, 9}, {8, 20}, {8, 39},
		{10, 3}, {10, 27}, {10, 39},
		{12, 3}, {12, 5}, {12, 20}, {12, 24}, {12, 34},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("patterns%d/seed%d", tc.patterns, tc.seed), func(t *testing.T) {
			d, full, early := mineBothWays(t, tc.seed, tc.patterns)
			if !early.Stats.StoppedEarly {
				t.Fatal("species rule never stopped the run")
			}
			for _, m := range early.MSPs {
				covered := false
				for _, fm := range full.MSPs {
					if d.Sp.Leq(m, fm) {
						covered = true
						break
					}
				}
				if !covered {
					t.Errorf("early-stop MSP %s is below no full-run MSP", d.Sp.Format(m))
				}
			}
		})
	}
}
